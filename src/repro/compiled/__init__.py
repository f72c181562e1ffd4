"""Compiled flat-circuit kernels: the netlist as structure-of-arrays.

``repro.compiled`` lowers a mapped :class:`~repro.circuit.netlist.Circuit`
once into integer-indexed numpy arrays and evaluates the hot loops —
analytic (P, D) propagation, net loads, arrival times, and their
dirty-cone incremental forms — on index ranges instead of Python
object traversals, with **bit-identical** results to the object-graph
path (the equivalence contract ``tests/test_compiled.py`` locks).

The kernels are the default engine; ``REPRO_COMPILED=0`` selects the
object-graph oracle instead (:mod:`repro.compiled.flags`).  See
``README.md`` in this directory for the lowering, the SoA layout, and
the contract.

The sampled twin (:mod:`repro.compiled.sampled`: uint64-blocked lane
streams), the power kernel (:mod:`repro.compiled.power`: class-batched
gate power) and the analytic backend (:mod:`repro.compiled.backend`)
import :mod:`repro.incremental` and therefore stay out of this
package-level namespace — import them by module.
"""

from .circuit import CompiledCircuit, get_compiled
from .flags import ENV_VAR, compiled_default

__all__ = [
    "CompiledCircuit",
    "get_compiled",
    "ENV_VAR",
    "compiled_default",
]
