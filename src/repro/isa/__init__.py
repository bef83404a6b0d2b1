"""Instruction-stream representation.

The paper extends SimpleScalar's instruction set with activate and
deactivate instructions (Section 4.1).  Our simulator is trace driven:
workloads (via the IR executor in :mod:`repro.tracegen`) produce a
:class:`Trace` of :class:`Instruction` records — loads, stores,
compressed ALU bursts, branches, and the HW_ON/HW_OFF markers — which
:mod:`repro.cpu` then times against a memory hierarchy.
"""

from repro.isa.encoding import decode_trace, encode_trace
from repro.isa.instructions import Instruction, Opcode
from repro.isa.packed import AnyTrace, PackedTrace
from repro.isa.trace import Trace, TraceBuilder

__all__ = [
    "AnyTrace",
    "Instruction",
    "Opcode",
    "PackedTrace",
    "Trace",
    "TraceBuilder",
    "decode_trace",
    "encode_trace",
]
