"""End-to-end validation: the differential execution oracle and fuzzer.

The static checker re-derives schedule constraints, and the
rewrite-semantics module proves graph transforms value-preserving.  This
package *executes the emitted VLIW program*, with two tools:

* :mod:`~repro.validate.oracle` — a value-level interpreter for
  :class:`~repro.codegen.kernel.VLIWProgram` (prologue, kernel re-issue,
  epilogue, queue pops through the actual
  :class:`~repro.registers.queues.QueueAllocation`, explicit ordering
  edges on the issue cycles) whose store streams must bit-equal a
  sequential reference run of the *original* loop.  It is the one
  dynamic judge of a schedule;
* :mod:`~repro.validate.fuzz` — randomized loops plus systematic
  mutations of valid schedules, judged by the checker and the oracle
  under an explicit agreement contract.

CLI entry points: ``repro verify`` and ``repro fuzz``.  Names load on
first use: the oracle alone never imports the fuzzer or numpy.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".oracle": (
        "DifferentialReport",
        "OracleReport",
        "execute_program",
        "verify_compiled",
        "verify_loop",
        "verify_many",
    ),
    ".fuzz": ("Disagreement", "FuzzConfig", "FuzzReport", "MUTATIONS", "run_fuzz"),
})
