"""Pinned digests of every benchmark trace.

``PackedTrace.checksum()`` of the base, optimized and selective traces
of all 13 benchmarks at TINY and SMALL, built exactly as
:func:`repro.core.versions.prepare_codes` builds them.  The digests
were taken from the record-by-record interpreter that is now the test
oracle (``tests/tracegen/oracle.py``); the nest-level executor must
reproduce them bit for bit.  They feed run-store keys and the perfbench
golden digests, so a change here invalidates every stored result.

Column bytes are machine-endian: these digests hold on little-endian
machines only.
"""

import sys

import pytest

from repro.core.versions import prepare_codes
from repro.params import base_config
from repro.workloads import SMALL, TINY, get_spec

pytestmark = pytest.mark.skipif(
    sys.byteorder != "little", reason="digests are machine-endian"
)

_SCALES = {"tiny": TINY, "small": SMALL}

#: (benchmark, scale) -> (base, optimized, selective) digests.
DIGESTS = {
    ("perl", "tiny"): (
        "0ba26433d4c7d797fd9ca9c5ec27200d",
        "0ba26433d4c7d797fd9ca9c5ec27200d",
        "11b0f76b2b69abd1fc50fa900d5c155d",
    ),
    ("compress", "tiny"): (
        "ff8e9e4582a610eb8a4d5532d314d8bf",
        "ff8e9e4582a610eb8a4d5532d314d8bf",
        "1d344777e884ea81483c2d4eefcbaa88",
    ),
    ("li", "tiny"): (
        "05912fd3a98de16292c4fd0024a3a950",
        "05912fd3a98de16292c4fd0024a3a950",
        "705ed3771c6655bf0ac18327edcbc45e",
    ),
    ("swim", "tiny"): (
        "334802cd3b5b0b6e3810e36900f1ef7f",
        "dd62dca1e57b1c022fd0e69c23b22e83",
        "dd62dca1e57b1c022fd0e69c23b22e83",
    ),
    ("applu", "tiny"): (
        "bba1aca617c2579e7803fb16064f1aee",
        "bba1aca617c2579e7803fb16064f1aee",
        "ff9ad008a23514a6777a11ae8e65bfd9",
    ),
    ("mgrid", "tiny"): (
        "fb5047059e5769dca5c8b6fa98c247c5",
        "31754f97d0d2e870b6343d04965109f7",
        "31754f97d0d2e870b6343d04965109f7",
    ),
    ("chaos", "tiny"): (
        "56e5cd2586abe7e1433db13bbb621a89",
        "56e5cd2586abe7e1433db13bbb621a89",
        "4047bbda2f662c170966723a3c9a35f7",
    ),
    ("vpenta", "tiny"): (
        "47d4060ad3c86381eeac6d7b65c39c0c",
        "73614b4cead3edc3a6eddd71e03847fd",
        "73614b4cead3edc3a6eddd71e03847fd",
    ),
    ("adi", "tiny"): (
        "9fd6785c24282ac43f5c21ab7370783d",
        "f243f6a9b840b59e9830e853b78100b2",
        "f243f6a9b840b59e9830e853b78100b2",
    ),
    ("tpcc", "tiny"): (
        "9912a8ca225dff31a37a2d24a801b870",
        "d4ff415b6df73f646e457ef9dbb41099",
        "4e1931a3a7d058734dca7de0fab2f74f",
    ),
    ("tpcd_q1", "tiny"): (
        "46cfe0844ab95349c118154fefed6b83",
        "54ed75c116c6d2f6adff91d3b4a00001",
        "16e55c79dfb62571768554bd7667a72b",
    ),
    ("tpcd_q3", "tiny"): (
        "58f9591d43c30f4d762454cb4dadc5fd",
        "556d8d93a7ac17119369201a3c8b4e0f",
        "811cce8aceb5554f67011b45d709c8b1",
    ),
    ("tpcd_q6", "tiny"): (
        "b2a67d47bd2a68dd20250ff13f084f82",
        "20a0184192dbc0f67a8c70fdbf5041cf",
        "f3d3abb2c6a0d117a4503571db76d508",
    ),
    ("perl", "small"): (
        "16c2bb129c10d49f9072a09f4cda4ccf",
        "16c2bb129c10d49f9072a09f4cda4ccf",
        "74c16cc13b3a028cb8bb0c53cfe5ea41",
    ),
    ("compress", "small"): (
        "6eb46d1b39b6e4772fd010cc0b5fa82a",
        "6eb46d1b39b6e4772fd010cc0b5fa82a",
        "5667a19e1650139432432e52d3879a24",
    ),
    ("li", "small"): (
        "54860826b57958c7095cec7bfc7ceeb9",
        "54860826b57958c7095cec7bfc7ceeb9",
        "d339d63a714c79c034ce3725d0aaad22",
    ),
    ("swim", "small"): (
        "8b85ab0e162cb4fbafa8b4802a628d7c",
        "9fd5fdcb3412e5272701911146bdd49f",
        "9fd5fdcb3412e5272701911146bdd49f",
    ),
    ("applu", "small"): (
        "e54fb24f16ec76ecf295a33c1102b3c4",
        "e54fb24f16ec76ecf295a33c1102b3c4",
        "16ad41bc730b589caea602689775d581",
    ),
    ("mgrid", "small"): (
        "101baac2047f87885019b73a0f8231a3",
        "a2a5ffac9bc75e0349c9066dbce94d26",
        "a2a5ffac9bc75e0349c9066dbce94d26",
    ),
    ("chaos", "small"): (
        "00268b167fd225319316ab4d28ecad5d",
        "00268b167fd225319316ab4d28ecad5d",
        "713ebec05e01bb3318c765e68242a51a",
    ),
    ("vpenta", "small"): (
        "42afb491f5d252c80d57bfff49946bbc",
        "a6d9218be09434fb70c7fc9590cdf1a9",
        "a6d9218be09434fb70c7fc9590cdf1a9",
    ),
    ("adi", "small"): (
        "c28ffb54c3c435769d0e4799eafa635d",
        "5c70ec1239a5392bbcc97ee413b9679f",
        "5c70ec1239a5392bbcc97ee413b9679f",
    ),
    ("tpcc", "small"): (
        "58d4f09c6ee50127e9420c00f291e323",
        "1fd3d680c6bbf749a8d7f7a357cd3cda",
        "56241c30c3d9a07c58bf68231d4c965f",
    ),
    ("tpcd_q1", "small"): (
        "db56c2ca4992d5cab1ef095617d64581",
        "7282156a349da5e34c8c5c8c8581b47c",
        "b926f11fe780f518568f4d616be46793",
    ),
    ("tpcd_q3", "small"): (
        "9f538e0363d300694580d8736aa422be",
        "4fa89c4e5b76cf70740c0ea877da36fc",
        "3802bdffa064073844d5777a8f2aceac",
    ),
    ("tpcd_q6", "small"): (
        "1199cc5cb421361bf0add54b47956103",
        "348ec9fb7121a86081b350d55d551726",
        "652e9bd9165a743ab7d5b6e884a5dec9",
    ),
}


@pytest.mark.parametrize("name,scale", sorted(DIGESTS))
def test_trace_checksums_are_pinned(name, scale):
    spec_scale = _SCALES[scale]
    codes = prepare_codes(
        get_spec(name),
        spec_scale,
        base_config().scaled(spec_scale.machine_divisor),
    )
    got = (
        codes.base_trace.checksum(),
        codes.optimized_trace.checksum(),
        codes.selective_trace.checksum(),
    )
    assert got == DIGESTS[name, scale]
