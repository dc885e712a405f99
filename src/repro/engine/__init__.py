"""The compiled evaluation engine (hot path of the production roadmap).

Precompiled transition tables (:mod:`repro.engine.tables`), the bitmask
kernel — alphabet-class compression, mask state sets and the flat lazy
DFA that flushes at its state budget (:mod:`repro.engine.kernel`) —
the memoised ``Eval`` oracle, whose unpinned case (NonEmp) is one forward
walk of the flat DFA, and the per-document output DAG enumeration reads
(:mod:`repro.engine.oracle`), and the reusable :class:`CompiledSpanner`
with its batch API (:mod:`repro.engine.compiled`).
"""

import warnings as _warnings

from repro.engine.compiled import CompiledSpanner
from repro.engine.kernel import AlphabetClasses, FlatTables, Kernel
from repro.engine.oracle import eval_compiled
from repro.engine.tables import CompiledVA, DocumentIndex, compile_va

__all__ = [
    "AlphabetClasses",
    "CompiledSpanner",
    "CompiledVA",
    "DocumentIndex",
    "FlatTables",
    "Kernel",
    "compile_spanner",
    "compile_va",
    "eval_compiled",
]


def __getattr__(name: str):
    if name == "compile_spanner":
        _warnings.warn(
            "repro.engine.compile_spanner is deprecated; "
            "use repro.api.compile instead",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.engine.compiled import compile_spanner

        globals()[name] = compile_spanner  # warn exactly once per process
        return compile_spanner
    raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
