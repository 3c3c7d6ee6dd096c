"""Symmetry audits: measured invariance metrics and the method comparison."""

import numpy as np
import pytest

from faframe import audit, frames, geometry
from faframe.audit import (
    METHODS,
    SymmetryReport,
    audit_model,
    compare_methods,
    format_report_table,
)
from faframe.errors import EmptyBatch
from faframe.faenet import FAENetConfig, FAENetModel, forward
from faframe.geometry import SE3, AtomicSystem

CONFIG = FAENetConfig(
    hidden_channels=8,
    num_filters=8,
    num_gaussians=4,
    num_interactions=1,
    cutoff=4.0,
    max_neighbors=8,
)

FORCE_CONFIG = FAENetConfig(
    hidden_channels=8,
    num_filters=8,
    num_gaussians=4,
    num_interactions=1,
    cutoff=4.0,
    max_neighbors=8,
    predict_forces=True,
    force_head_hidden=8,
)


def fixed_systems(seed, count=4):
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        n = int(rng.integers(4, 8))
        systems.append(
            AtomicSystem(rng.standard_normal((n, 3)) * 1.5, rng.integers(1, 20, size=n))
        )
    return systems


def test_audit_frames_each_base_system_a_fixed_number_of_times(monkeypatch):
    # The base systems are framed once as a batch, for the degeneracy check,
    # and once more by their view plan: twice, however many transforms are
    # probed. Each probe is framed once, by its plan, which serves both its
    # canonical views and its prediction; the audit frames nothing per system.
    systems = fixed_systems(1, count=2)
    # Frames are built in batches; every system that enters one counts.
    framed = []
    audit_batches = []
    real = frames.compute_frames

    def counting(batch, *args, **kwargs):
        framed.extend(batch)
        return real(batch, *args, **kwargs)

    def counting_in_audit(batch, *args, **kwargs):
        audit_batches.append(len(batch))
        return counting(batch, *args, **kwargs)

    # Rigid motions are validated as they are built; the audit should build
    # only its probe panel, however many elements a frame has.
    built = []
    real_post_init = geometry.EuclideanTransform.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(frames, "compute_frames", counting)
    monkeypatch.setattr(audit, "compute_frames", counting_in_audit)
    monkeypatch.setattr(geometry.EuclideanTransform, "__post_init__", counting_post_init)
    model = FAENetModel(FORCE_CONFIG, np.random.default_rng(0))
    report = audit_model(model, systems, fa_mode="full", num_transforms=3,
                         rng=np.random.default_rng(2))
    assert report.pos == 1
    for system in systems:
        assert sum(s is system for s in framed) == 2
    # each of the 2 x 3 moved copies once
    assert len(framed) == len(systems) * (2 + 2 * 3)
    # the base batch only
    assert audit_batches == [len(systems)]

    # SE3 frames have half as many elements as E3 frames; the audit builds
    # the same transforms for both.
    e3_built = len(built)
    built.clear()
    report = audit_model(model, systems, fa_mode="full", group=SE3, num_transforms=3,
                         rng=np.random.default_rng(2))
    assert report.num_systems == len(systems)
    assert len(built) == e3_built


@pytest.mark.parametrize("fa_mode", ["stochastic", "data_augment"])
@pytest.mark.parametrize("group", ["E3", "SE3", "Z_AXIS_2D"])
def test_audit_predicts_and_draws_as_one_forward_per_copy(fa_mode, group):
    # The oracle: the probe panel, then, per audited system, forward on the
    # system and on each moved copy in turn, all drawing from one rng. A
    # degenerate system is skipped and draws nothing.
    single = AtomicSystem(np.array([[0.4, -0.1, 2.0]]), np.array([6]))
    systems = [fixed_systems(5, count=1)[0], single, *fixed_systems(6, count=1)]
    model = FAENetModel(FORCE_CONFIG, np.random.default_rng(0))
    rng = np.random.default_rng(8)
    report = audit_model(model, systems, fa_mode=fa_mode, group=group, num_transforms=2,
                         rng=rng)

    shared = np.random.default_rng(8)
    rotations, translations = audit._probe_panel(shared, 2)
    shifts = []
    for system in (systems[0], systems[2]):
        base = forward(model, system, fa_mode=fa_mode, group=group, rng=shared)
        for copy in geometry.apply_transforms(system, rotations, translations):
            moved = forward(model, copy, fa_mode=fa_mode, group=group, rng=shared)
            shifts.append(abs(moved.energy - base.energy))
    assert report.degenerate_count == 1 and report.num_systems == 2
    assert rng.bit_generator.state == shared.bit_generator.state
    per_kind = np.reshape(shifts, (2, 2, 2)) * audit.EV_TO_MEV
    assert report.rot_i == float(np.mean(per_kind[:, 0].ravel()))
    assert report.refl_i == float(np.mean(per_kind[:, 1].ravel()))


def test_audit_of_no_systems_is_an_empty_batch():
    model = FAENetModel(CONFIG, np.random.default_rng(0))
    with pytest.raises(EmptyBatch, match="empty batch"):
        audit_model(model, [], rng=np.random.default_rng(2))
    with pytest.raises(EmptyBatch, match="empty batch"):
        compare_methods(CONFIG, [], num_transforms=3)


@pytest.mark.parametrize("num_transforms", [0, -3])
def test_audit_needs_at_least_one_transform(num_transforms):
    model = FAENetModel(CONFIG, np.random.default_rng(0))
    with pytest.raises(ValueError, match="num_transforms must be at least 1"):
        audit_model(model, fixed_systems(1, count=1), num_transforms=num_transforms,
                    rng=np.random.default_rng(2))


@pytest.mark.parametrize("num_transforms", [1, 7, 40])
def test_probe_panel_is_rotations_then_reflections(num_transforms):
    # The signs hold by construction, not by a check that `python -O` strips.
    rotations, translations = audit._probe_panel(np.random.default_rng(3), num_transforms)
    assert rotations.shape == (2 * num_transforms, 3, 3)
    assert translations.shape == (2 * num_transforms, 3)
    dets = np.linalg.det(rotations)
    np.testing.assert_allclose(dets[:num_transforms], 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dets[num_transforms:], -1.0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(translations[:num_transforms], 0.0)


def test_full_mode_is_invariant_to_machine_precision():
    model = FAENetModel(FORCE_CONFIG, np.random.default_rng(0))
    report = audit_model(
        model, fixed_systems(1), fa_mode="full", rng=np.random.default_rng(2)
    )
    assert report.pos == 1
    assert report.rot_i < 1e-6
    assert report.refl_i < 1e-6
    assert report.f_rot_e < 1e-6
    assert report.f_refl_e < 1e-6
    assert report.num_systems == 4
    assert report.degenerate_count == 0


def test_zeroed_model_has_exactly_zero_gaps():
    model = FAENetModel(CONFIG, np.random.default_rng(3))
    for p in model.parameters():
        p.data[...] = 0.0
    report = audit_model(
        model, fixed_systems(4), fa_mode="none", rng=np.random.default_rng(5)
    )
    # a constant-zero model is trivially invariant even without canonicalization
    assert report.rot_i == 0.0
    assert report.refl_i == 0.0
    assert report.pos == 0  # raw representations still differ


def test_none_mode_breaks_invariance():
    systems = fixed_systems(6)
    model = FAENetModel(CONFIG, np.random.default_rng(7))
    full = audit_model(model, systems, fa_mode="full", rng=np.random.default_rng(8))
    none = audit_model(model, systems, fa_mode="none", rng=np.random.default_rng(8))
    assert none.rot_i > full.rot_i
    assert none.rot_i > 1e-3
    assert none.pos == 0


def test_energy_only_model_reports_no_force_columns():
    model = FAENetModel(CONFIG, np.random.default_rng(11))
    report = audit_model(model, fixed_systems(12), rng=np.random.default_rng(13))
    assert report.f_rot_e is None
    assert report.f_refl_e is None
    payload = report.to_dict()
    assert payload["f_rot_e"] is None
    assert payload["schema_version"] == 1


def test_same_seed_same_report():
    systems = fixed_systems(14)
    model = FAENetModel(CONFIG, np.random.default_rng(15))
    a = audit_model(model, systems, fa_mode="none", rng=np.random.default_rng(16))
    b = audit_model(model, systems, fa_mode="none", rng=np.random.default_rng(16))
    assert a == b


def test_metrics_do_not_depend_on_system_order():
    systems = fixed_systems(17)
    model = FAENetModel(CONFIG, np.random.default_rng(18))
    fwd = audit_model(model, systems, fa_mode="none", rng=np.random.default_rng(19))
    rev = audit_model(
        model, list(reversed(systems)), fa_mode="none", rng=np.random.default_rng(19)
    )
    assert rev.rot_i == pytest.approx(fwd.rot_i, rel=1e-12)
    assert rev.refl_i == pytest.approx(fwd.refl_i, rel=1e-12)


def test_degenerate_systems_are_counted_and_skipped():
    systems = fixed_systems(20, count=3)
    systems.append(AtomicSystem(np.array([[0.0, 0.0, 0.0]]), np.array([6])))
    model = FAENetModel(CONFIG, np.random.default_rng(21))
    report = audit_model(model, systems, fa_mode="full", rng=np.random.default_rng(22))
    assert report.degenerate_count == 1
    assert report.num_systems == 3


def test_targets_produce_percent_column():
    systems = fixed_systems(23)
    model = FAENetModel(CONFIG, np.random.default_rng(24))
    report = audit_model(
        model, systems, fa_mode="none", targets=[1.0, 2.0, -3.0, 0.5],
        rng=np.random.default_rng(25),
    )
    assert report.pct_diff is not None
    assert np.isfinite(report.pct_diff)
    with pytest.raises(ValueError):
        audit_model(model, systems, targets=[1.0])


def test_compare_methods_covers_requested_methods():
    systems = fixed_systems(26, count=2)
    reports = compare_methods(
        CONFIG, systems, methods=["full", "none"], seed=3, num_transforms=3
    )
    assert set(reports) == {"full", "none"}
    assert reports["full"].group == "E3"
    assert reports["full"].rot_i < reports["none"].rot_i
    with pytest.raises(ValueError):
        compare_methods(CONFIG, systems, methods=["sideways"])


def test_compare_methods_se3_uses_se3_frames():
    systems = fixed_systems(27, count=2)
    reports = compare_methods(
        CONFIG, systems, methods=["se3_stochastic"], seed=4, num_transforms=3
    )
    assert reports["se3_stochastic"].group == SE3
    assert reports["se3_stochastic"].fa_mode == "stochastic"


def test_method_table_lists_all_modes():
    assert set(METHODS) == {"full", "stochastic", "se3_stochastic", "data_augment", "none"}


def test_format_report_table_alignment():
    report = SymmetryReport(
        pos=1, rot_i=0.12345, refl_i=0.5, pct_diff=None, f_rot_e=None,
        f_refl_e=None, num_systems=2, num_transforms=3, degenerate_count=0,
        fa_mode="full", group="E3",
    )
    text = format_report_table({"full": report})
    lines = text.splitlines()
    assert lines[0].startswith("method")
    assert "Rot-I" in lines[0] and "F-Refl-E" in lines[0]
    assert lines[1].startswith("full")
    assert "0.1235" in lines[1] or "0.1234" in lines[1]
    assert "-" in lines[1]
