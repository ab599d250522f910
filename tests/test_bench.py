import re

import numpy as np
import pytest

import warpadam.bench as bench
import warpadam.optim as optim
import warpadam.tensor as T
from warpadam import __version__
from warpadam.bench import (
    OPTIMIZERS,
    ComparisonRow,
    CurveRecord,
    RunConfig,
    compare_optimizers,
    convergence_epoch,
    emit_csv,
    model_sizes,
    read_curve_csv,
    run_sequential_tasks,
    write_comparison_csv,
)
from warpadam.config import write_manifest
from warpadam.nn import MLP
from warpadam.optim import STEP_FUNCS, AdamState, HyperParams, warpadam_step
from warpadam.tasks import (ClassTable, EpisodeSpec, SamplingError, SynthSpec, sample_episode,
                           synth_proto_tasks)
from warpadam.tensor import NumericError, Tensor
from warpadam.warp import init_warps


def tiny_cfg(**kw):
    base = dict(
        hyper=HyperParams(eta=0.01),
        source=SynthSpec(alphabets=2, classes_per_alphabet=5, instances_per_class=12, dim=8, noise=0.1),
        episode=EpisodeSpec(n_way=3, k_shot=2, query_per_class=3),
        hidden=8,
        n_tasks=2,
        steps_per_task=15,
        eval_every=5,
        seed=7,
    )
    base.update(kw)
    return RunConfig(**base)


def strip_wall(records):
    return [(r.task_index, r.step, r.train_loss, r.train_acc, r.val_loss, r.val_acc)
            for r in records]


# ---------------------------------------------------------------------------
# sequential runs

def test_warpadam_identity_curve_equals_adam_curve():
    ra = run_sequential_tasks(tiny_cfg(), "adam")
    rw = run_sequential_tasks(tiny_cfg(warps="identity"), "warpadam")
    assert strip_wall(ra.records) == strip_wall(rw.records)


def test_single_task_indices_are_zero():
    r = run_sequential_tasks(tiny_cfg(n_tasks=1), "adam")
    assert r.records and all(rec.task_index == 0 for rec in r.records)


def test_records_strictly_increase_lexicographically():
    r = run_sequential_tasks(tiny_cfg(n_tasks=3), "adam")
    keys = [(rec.task_index, rec.step) for rec in r.records]
    assert keys == sorted(set(keys))


def test_full_run_determinism_modulo_wall():
    r1 = run_sequential_tasks(tiny_cfg(), "adam")
    r2 = run_sequential_tasks(tiny_cfg(), "adam")
    assert strip_wall(r1.records) == strip_wall(r2.records)


def test_seed_sensitivity():
    r1 = run_sequential_tasks(tiny_cfg(seed=7), "adam")
    r2 = run_sequential_tasks(tiny_cfg(seed=8), "adam")
    assert strip_wall(r1.records) != strip_wall(r2.records)


def test_low_learning_rate_run_completes():
    # the extreme-low-eta regime: the harness must produce plottable curves
    r = run_sequential_tasks(tiny_cfg(hyper=HyperParams(eta=1e-5), n_tasks=3), "adam")
    assert not r.diverged
    assert len(r.records) == 3 * 3


def test_divergence_is_flagged_not_raised():
    r = run_sequential_tasks(tiny_cfg(hyper=HyperParams(eta=1e308)), "sgd")
    assert r.diverged
    assert r.note.startswith("non-finite loss/gradient") and "task" in r.note and "step" in r.note
    assert r.records  # the flagged record is emitted


def test_run_takes_its_gradients_without_an_engine_backward_pass(monkeypatch):
    # the MLP's loss_grads gives the engine's bits with no graph walk
    walks = []
    original = T.toposort

    def counting_toposort(*args, **kwargs):
        walks.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(T, "toposort", counting_toposort)
    for opt in ("adam", "warpadam"):
        r = run_sequential_tasks(tiny_cfg(n_tasks=1, steps_per_task=5), opt)
        assert not r.diverged and r.records
    assert walks == []


@pytest.mark.parametrize("field", ["support_y", "query_y"])
def test_run_checks_a_tasks_labels_before_its_first_step(monkeypatch, field):
    # a bad query label used to raise only at the task's first eval step
    sample, steps = bench.sample_episode, []
    core = optim.STEP_CORES["adam"]
    monkeypatch.setitem(optim.STEP_CORES, "adam", lambda *args: steps.append(1) or core(*args))

    def bad_labels(*args, **kwargs):
        episode = sample(*args, **kwargs)
        labels = getattr(episode, field).copy()
        labels[-1] = 99
        return episode._replace(**{field: labels})

    run_sequential_tasks(tiny_cfg(n_tasks=1), "adam")
    assert steps  # the wrapped core is the one that runs
    steps.clear()
    monkeypatch.setattr(bench, "sample_episode", bad_labels)
    with pytest.raises(ValueError, match="out of range"):
        run_sequential_tasks(tiny_cfg(), "adam")
    assert steps == []


def test_a_warpadam_run_steps_with_adams_core(monkeypatch):
    # WarpAdam is Adam's core on the warped gradient: the table's adam entry takes every step
    steps = []
    core = optim.STEP_CORES["adam"]
    monkeypatch.setitem(optim.STEP_CORES, "adam", lambda *args: steps.append(1) or core(*args))
    cfg = tiny_cfg(n_tasks=2, steps_per_task=3)
    result = run_sequential_tasks(cfg, "warpadam")
    assert not result.diverged
    assert len(steps) == cfg.n_tasks * cfg.steps_per_task


def test_run_encodes_each_tasks_labels_once_whatever_the_steps(monkeypatch):
    encoded = []
    encode = T.encode_labels
    monkeypatch.setattr(T, "encode_labels", lambda *args: encoded.append(1) or encode(*args))
    for steps in (5, 50):
        encoded.clear()
        assert not run_sequential_tasks(tiny_cfg(n_tasks=2, steps_per_task=steps), "adam").diverged
        assert len(encoded) == 4  # support and query of each task


def _per_tensor_run(cfg, optimizer):
    """The reference loop: one pure step per tensor per iteration, each
    episode drawn from the table restricted anew, and each metric from the
    engine's forward graph. Returns the records without ``wall_ms`` and the
    divergence note."""
    rng = np.random.default_rng(cfg.seed)
    s = cfg.source
    table = synth_proto_tasks(s.alphabets, s.classes_per_alphabet, s.instances_per_class, s.dim,
                              s.noise, rng)
    model = MLP(model_sizes(cfg.hidden, table.dim, cfg.episode.n_way), rng)
    arrays = model.clone_params()
    states = [AdamState.zeros(a.shape) for a in arrays]
    warps = init_warps([a.shape for a in arrays], cfg.warps)

    def step(i, g):
        if optimizer == "warpadam":
            return warpadam_step(states[i], arrays[i], g, warps[i], cfg.hyper)
        return STEP_FUNCS[optimizer](states[i], arrays[i], g, cfg.hyper)

    def metrics(x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            params = [Tensor(a) for a in arrays]
            pred = np.argmax(model.logits(params, x).data, axis=-1)
            return model.loss(params, x, y).item(), float(np.mean(pred == y))

    rows, nan = [], float("nan")
    for ti in range(cfg.n_tasks):
        pool = table if cfg.episode.alphabets is None else table.restricted(cfg.episode.alphabets)
        ep = sample_episode(pool, cfg.episode.n_way, cfg.episode.k_shot,
                            cfg.episode.query_per_class, rng)
        for s in range(1, cfg.steps_per_task + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                loss, gs, _ = model.loss_grads(arrays, ep.support_x, ep.support_y)
            if not np.isfinite(float(loss)) or not all(np.all(np.isfinite(g)) for g in gs):
                rows.append((ti, s, float(loss), nan, nan, nan))
                return rows, f"non-finite loss/gradient at task {ti} step {s}"
            try:
                for i, g in enumerate(gs):
                    states[i], arrays[i] = step(i, g)
            except NumericError as exc:
                rows.append((ti, s, float(loss), nan, nan, nan))
                return rows, f"optimizer overflow at task {ti} step {s}: {exc}"
            if s % cfg.eval_every == 0 or s == cfg.steps_per_task:
                rows.append((ti, s) + metrics(ep.support_x, ep.support_y)
                            + metrics(ep.query_x, ep.query_y))
    return rows, ""


def _bits(rows):
    return [tuple(x if isinstance(x, int) else x.hex() for x in row) for row in rows]


# the "-False" suffix keeps each case the name it had when warpadam also had a
# second, update-side placement
@pytest.mark.parametrize("optimizer", OPTIMIZERS, ids=lambda opt: f"{opt}-False")
def test_run_curves_are_bitwise_per_tensor_steps(optimizer):
    # a two-layer MLP: four tensors of three warp forms, stepped as one flat buffer
    hyper = HyperParams(eta=0.05, beta2=0.9, weight_decay=0.1)
    cfg = tiny_cfg(hyper=hyper, steps_per_task=12)
    result = run_sequential_tasks(cfg, optimizer)
    want_rows, want_note = _per_tensor_run(cfg, optimizer)
    assert _bits(strip_wall(result.records)) == _bits(want_rows)
    assert not result.diverged and result.note == want_note == ""
    assert len(want_rows) == 2 * 3


def test_run_restricts_its_table_once_with_the_bits_of_a_restriction_per_episode(monkeypatch):
    restrictions = []
    restricted = ClassTable.restricted
    monkeypatch.setattr(ClassTable, "restricted",
                        lambda self, names: restrictions.append(names) or restricted(self, names))
    cfg = tiny_cfg(source=SynthSpec(alphabets=3, classes_per_alphabet=4, instances_per_class=8,
                                    dim=8, noise=0.1),
                   episode=EpisodeSpec(n_way=3, k_shot=2, query_per_class=3,
                                       alphabets=("alpha02", "alpha00")), n_tasks=4)
    result = run_sequential_tasks(cfg, "warpadam")
    assert restrictions == [("alpha02", "alpha00")]
    want_rows, _ = _per_tensor_run(cfg, "warpadam")
    assert _bits(strip_wall(result.records)) == _bits(want_rows)


def test_an_unknown_alphabet_fails_before_the_model_is_built(monkeypatch):
    monkeypatch.setattr(bench, "MLP", lambda *args: pytest.fail("model built"))
    with pytest.raises(SamplingError, match=r"unknown alphabets requested: \['nope'\]"):
        run_sequential_tasks(tiny_cfg(episode=EpisodeSpec(n_way=3, alphabets=("nope",))), "adam")


def test_run_divergence_notes_are_those_of_per_tensor_steps(monkeypatch):
    original = MLP.loss_grads
    calls = []

    def nan_in_the_last_tensor_at_step_3(self, arrays, x, y):
        loss, grads, forward = original(self, arrays, x, y)
        calls.append(1)
        if len(calls) == 3:
            grads[-1] = grads[-1].copy()
            grads[-1][-1] = np.nan
        return loss, grads, forward

    monkeypatch.setattr(MLP, "loss_grads", nan_in_the_last_tensor_at_step_3)
    cfg = tiny_cfg()
    for optimizer in ("adam", "warpadam"):
        calls.clear()
        result = run_sequential_tasks(cfg, optimizer)
        calls.clear()
        want_rows, want_note = _per_tensor_run(cfg, optimizer)
        assert result.diverged and result.note == want_note
        assert want_note == "non-finite loss/gradient at task 0 step 3"
        assert _bits(strip_wall(result.records)) == _bits(want_rows)
    monkeypatch.setattr(MLP, "loss_grads", original)

    # a decay factor eta * weight_decay that overflows to inf sends every
    # parameter to a non-finite value at the first step
    cfg = tiny_cfg(hyper=HyperParams(eta=1e10, weight_decay=1e300))
    result = run_sequential_tasks(cfg, "adamw")
    with np.errstate(over="ignore", invalid="ignore"):
        want_rows, want_note = _per_tensor_run(cfg, "adamw")
    assert result.diverged and result.note == want_note
    assert want_note == "optimizer overflow at task 0 step 1: adamw step overflowed to non-finite values"
    assert _bits(strip_wall(result.records)) == _bits(want_rows)


def test_run_takes_its_metrics_without_the_engine_forward(monkeypatch):
    monkeypatch.setattr(MLP, "loss", lambda *a, **k: pytest.fail("engine forward"))
    for opt in ("adam", "warpadam"):
        r = run_sequential_tasks(tiny_cfg(n_tasks=1, steps_per_task=5), opt)
        assert not r.diverged and len(r.records) == 1


def test_every_optimizer_runs():
    for opt in ("sgd", "momentum", "amsgrad", "adamw", "radam", "adam", "warpadam"):
        r = run_sequential_tasks(tiny_cfg(n_tasks=1, steps_per_task=5), opt)
        assert not r.diverged, opt
        assert r.records, opt


def test_run_config_validation():
    with pytest.raises(ValueError, match="unknown optimizer 'sgdx'"):
        run_sequential_tasks(tiny_cfg(), "sgdx")
    with pytest.raises(ValueError):
        tiny_cfg(n_tasks=0)
    # each field is checked on its own, and the error names it
    for field, value, rule in (("steps_per_task", 0, "must be >= 1"),
                               ("hidden", -1, "must be >= 0 (0 gives a linear classifier)")):
        line = rf"^{field} {re.escape(rule)}, got {value}$"
        with pytest.raises(optim.FieldError, match=line) as exc:
            tiny_cfg(**{field: value})
        assert exc.value.field == field
    with pytest.raises(optim.FieldError, match=r"^k_shot must be >= 1, got 0$"):
        EpisodeSpec(k_shot=0)


# ---------------------------------------------------------------------------
# convergence metric

def curve_from_accs(accs):
    return [CurveRecord(i, 1, 0.0, 0.0, 0.0, a, 0) for i, a in enumerate(accs)]


def test_convergence_epoch_hand_scan():
    # 0.79 is below 99% of the peak 0.8, so epoch 4 is the first to reach it
    assert convergence_epoch(curve_from_accs([0.5, 0.7, 0.79, 0.8, 0.8])) == 4


def test_convergence_epoch_constant_curve():
    assert convergence_epoch(curve_from_accs([0.9, 0.9, 0.9])) == 1


def test_convergence_epoch_degenerate_zeros():
    assert convergence_epoch(curve_from_accs([0.0, 0.0])) == 2


def test_convergence_epoch_validation():
    with pytest.raises(ValueError):
        convergence_epoch([])


# ---------------------------------------------------------------------------
# comparison

def test_compare_rows_match_config_order():
    rows = compare_optimizers(tiny_cfg(n_tasks=1, steps_per_task=5), ["sgd", "adam", "radam"])
    assert [r.algorithm for r in rows] == ["sgd", "adam", "radam"]


def test_compare_identical_configs_identical_metrics():
    r1, r2 = compare_optimizers(tiny_cfg(n_tasks=1, steps_per_task=5), ["adam", "adam"])
    assert r1.convergence_epochs == r2.convergence_epochs
    assert r1.validation_accuracy_pct == r2.validation_accuracy_pct


def test_compare_flags_divergence_without_aborting():
    # only adamw reads the weight decay, which sends it past the float range at step 2
    cfg = tiny_cfg(hyper=HyperParams(eta=0.01, weight_decay=1e308), n_tasks=1, steps_per_task=5)
    rows = compare_optimizers(cfg, ["adamw", "adam"])
    assert rows[0].diverged and not rows[1].diverged


# ---------------------------------------------------------------------------
# CSV formats

def test_emit_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "c.csv"
    emit_csv([], path)
    assert path.read_bytes() == b"task_index,step,train_loss,train_acc,val_loss,val_acc,wall_ms\n"


def test_emit_csv_roundtrip(tmp_path):
    records = [CurveRecord(0, 5, 1.25, 0.5, 1.5, 1 / 3, 12),
               CurveRecord(1, 10, 0.1234567890123456789, 0.25, float("nan"), 0.0, 99)]
    path = tmp_path / "c.csv"
    emit_csv(records, path)
    back = read_curve_csv(path)
    assert len(back) == 2
    for a, b in zip(records, back):
        assert (a.task_index, a.step, a.wall_ms) == (b.task_index, b.step, b.wall_ms)
        for f in ("train_loss", "train_acc", "val_loss", "val_acc"):
            x, y = getattr(a, f), getattr(b, f)
            assert (np.isnan(x) and np.isnan(y)) or x == y


def test_emit_csv_byte_exact_fixture(tmp_path):
    # fixture written out by hand from the format rules:
    # 17 significant digits, LF endings, ints bare
    records = [CurveRecord(0, 10, 0.5, 1.0, 2.0, 0.25, 3),
               CurveRecord(1, 20, 1.0 / 3.0, 0.75, 0.1, 1.0, 44)]
    expected = (
        b"task_index,step,train_loss,train_acc,val_loss,val_acc,wall_ms\n"
        b"0,10,0.5,1,2,0.25,3\n"
        b"1,20,0.33333333333333331,0.75,0.10000000000000001,1,44\n"
    )
    path = tmp_path / "c.csv"
    emit_csv(records, path)
    assert path.read_bytes() == expected


def test_comparison_csv_shape_and_footer(tmp_path):
    rows1 = [ComparisonRow("sgd", 1.5, 2, 50.0), ComparisonRow("adam", 1.0, 1, 60.0)]
    rows2 = [ComparisonRow("sgd", 0.5, 1, 90.0, diverged=True)]
    path = tmp_path / "cmp.csv"
    write_comparison_csv(path, [("synthA", rows1), ("synthB", rows2)])
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "algorithm,training_time_s,convergence_epochs,validation_accuracy_pct"
    data_lines = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(data_lines) == 1 + 3  # header + three rows
    blank_separated = text.split("\n\n")
    assert len(blank_separated) == 2  # two blocks
    assert "# diverged: sgd" in lines
    assert any("79.6" in ln for ln in lines if ln.startswith("#"))  # reference footer present
    assert any("wall-clock" in ln for ln in lines)


def test_manifest_format(tmp_path):
    # sorted key=value lines, LF-only; the values and the command's keys go over the config
    write_manifest(tmp_path, {"b.key": "x", "a.key": "0.5"}, "run", {"c.key": 2, "a.key": "y"})
    assert (tmp_path / "manifest.txt").read_bytes() == (
        f"a.key=y\nb.key=x\nc.key=2\ncommand=run\nlibrary.version={__version__}\n"
        f"out={tmp_path}\n").encode()
