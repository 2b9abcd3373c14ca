"""The full-pipeline gradient audit: its numeric side evaluates the same
loss the tape differentiates, and it flags a wrong backward rule."""

import numpy as np
import pytest

from analogia import diagnostics as dg
from analogia import analogy_core, encoder
from analogia.analogy_core import HyperParams
from analogia.text_data import derive_seed


def _instances(dtype, count=6):
    rng = np.random.default_rng(derive_seed(4, "diagnostics-test"))
    return [dg._random_instance(rng, dtype) for _ in range(count)]


@pytest.mark.parametrize("variant", ["hinge", "literal"])
@pytest.mark.parametrize("y", [0, 1])
@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_kernel_loss_equals_tape_loss(variant, y, dtype, rtol):
    """At zero perturbation the float64 kernel pass gives _loss's value,
    margins chosen so the hinge is both active and inactive."""
    hinge_active = set()
    for table, sentences, params, _, _ in _instances(dtype):
        for margin in (-0.9, 0.25, 0.9):
            hp = HyperParams(margin=margin, loss_variant=variant, l2_lambda=0.01)
            tape = dg._loss(table, sentences, params, y, hp)
            points = params.flat.values.astype(np.float64)[None]
            kernel = dg._numeric_losses(table, sentences, params.layout, y, hp)(points)
            assert kernel.shape == (1,)
            np.testing.assert_allclose(kernel[0], tape.loss.item(), rtol=rtol)
            hinge_active.add(bool(tape.energies[0] > margin))
    assert hinge_active == {True, False}


def test_audit_catches_a_wrong_gradient(monkeypatch):
    """Scaling the update-gate gradients of the BiGRU node's
    backpropagation through time by 1.001 must push the float64 audit past
    its tolerance; the forward values, and so the numeric side, are
    untouched."""
    clean = dg.full_pipeline_gradient_errors(3, seed=2, dtype=np.float64)
    assert clean.max() < dg.F64_TOLERANCE

    scan_grads = encoder._gru_scan_grads

    def skewed_scan_grads(*args):
        d_W_z, d_U_z, d_b_z, *rest = scan_grads(*args)
        return (d_W_z * 1.001, d_U_z * 1.001, d_b_z * 1.001, *rest)

    monkeypatch.setattr(encoder, "_gru_scan_grads", skewed_scan_grads)
    errors = dg.full_pipeline_gradient_errors(3, seed=2, dtype=np.float64)
    assert errors.max() > dg.F64_TOLERANCE


def test_audit_catches_a_wrong_loss_gradient(monkeypatch):
    """Scaling the energy gradient of the loss node's backward pass by
    1.001 must push the float64 audit past its tolerance.  All four row
    gradients flow through the energy, so scaling them scales it; the L2
    gradient and the forward values are untouched."""
    clean = dg.full_pipeline_gradient_errors(3, seed=2, dtype=np.float64)
    assert clean.max() < dg.F64_TOLERANCE

    loss_grads = analogy_core._batch_loss_grads

    def skewed_loss_grads(*args):
        grads = loss_grads(*args)
        return tuple(g * 1.001 for g in grads[:4]) + grads[4:]

    monkeypatch.setattr(analogy_core, "_batch_loss_grads", skewed_loss_grads)
    errors = dg.full_pipeline_gradient_errors(3, seed=2, dtype=np.float64)
    assert errors.max() > dg.F64_TOLERANCE


def test_one_kernel_call_per_draw(monkeypatch):
    """Each draw is judged from one untaped kernel pass; each accepted
    instance adds its tape and its batched finite-difference pass."""
    calls, draws = [], []
    kernel, draw = encoder.bigru_forward, dg._random_instance

    def counted_kernel(*args):
        calls.append(1)
        return kernel(*args)

    def counted_draw(*args):
        draws.append(1)
        return draw(*args)

    monkeypatch.setattr(encoder, "bigru_forward", counted_kernel)
    monkeypatch.setattr(dg, "bigru_forward", counted_kernel)
    monkeypatch.setattr(dg, "_random_instance", counted_draw)
    dg.full_pipeline_gradient_errors(10, seed=2, dtype=np.float64)
    assert len(draws) == 35
    assert len(calls) == len(draws) + 2 * 10
