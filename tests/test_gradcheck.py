"""The full oracle suite: n=2 reduction identities, unbiasedness by
enumeration, closed-form Jacobians, the one-node diffusion chain against its
composite oracle, the final draw in expectation and frozen-noise finite
differences."""

from redge.gradcheck import run_gradcheck


def test_run_gradcheck_passes_in_full():
    results = run_gradcheck()
    assert len(results) == 200
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
