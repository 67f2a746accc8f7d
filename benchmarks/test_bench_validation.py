"""Benchmark: model-vs-simulation validation over the Figure 9 grid.

"The results are in good agreement with what is predicted by the model"
(Section 5) — quantified: across a task-time sweep in both panels, the
DES totals match the exact pipeline formula to float precision, and the
averaged Eq. (3) model to within 1.43% (the worst of this 6-point,
60-call grid is 1.426e-02).  That residue is not simulator error: Eq. (3)
averages over a stream, while a finite trace's boundary stages (the
startup full configuration, and a last stage with no configuration to
overlap) shift the total by about one stage in ``n``, so the gap is
O(1/n) and the check allows ``2 / n_calls`` (3.3% here).
"""

from __future__ import annotations

from repro.experiments import fig9

from conftest import record


def test_bench_validation(benchmark) -> None:
    n_calls = 60
    errs = benchmark(fig9.validation_grid, 6, n_calls)
    print()
    print(f"max FRTR vs Eq.(1) rel error     : {errs['max_frtr_err']:.3e}")
    print(f"max PRTR vs pipeline rel error   : "
          f"{errs['max_pipeline_err']:.3e}")
    print(f"max PRTR vs Eq.(3) rel error     : {errs['max_model_err']:.3e}")
    assert errs["max_frtr_err"] < 1e-9
    assert errs["max_pipeline_err"] < 1e-9
    # Eq. (3) is the averaged model; the trace boundary contributes an
    # O(1/n) discrepancy (one stage's configuration overlap).
    assert errs["max_model_err"] < 2.0 / n_calls
    record(benchmark, artifact="Validation (Sec. 5 agreement claim)", **errs)
