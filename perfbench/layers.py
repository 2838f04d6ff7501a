"""Per-layer metrics of a traced run, computed from span totals and from
counters that observers fill at the layer boundaries.

Times named ``*_s`` are self time (the function's own code, without the
traced functions it calls) unless the comment by the definition says
inclusive; stages of set-up, the validation path and the metric families
are inclusive, so they read as the time that stage or family took.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tracer import SectionStats
from checks import EXACT_CAP, alignment_combos, strip

IO_FUNCTIONS = (
    "synthworld.save_world", "synthworld.load_world",
    "corpus.write_trajectories", "corpus.read_trajectory_rows", "corpus.load_and_terminate",
    "cellspace.save_cellmap", "cellspace.load_cellmap",
    "corpus.save_sequences", "corpus.load_sequences",
    "corpus.save_accumulation", "corpus.load_accumulation",
)


@dataclass
class Counters:
    points: int = 0
    clip_events: int = 0
    failed_trials: int = 0
    generated: int = 0
    tokens_sampled: int = 0
    unterminated: int = 0
    distinct: int = 0
    scored_pairs: list = field(default_factory=list)

    def merged(self, other: "Counters") -> "Counters":
        out = Counters()
        for name in ("points", "clip_events", "failed_trials", "generated", "tokens_sampled",
                     "unterminated", "distinct"):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        out.scored_pairs = self.scored_pairs + other.scored_pairs
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class CounterBox:
    """Holds the counters the observers fill; swapped per traced section."""

    def __init__(self):
        self.current = Counters()

    def take(self) -> Counters:
        out, self.current = self.current, Counters()
        return out


def observers(box: CounterBox) -> dict:
    """Observers for the tracer that count work at the layer boundaries."""

    def on_cluster(args, kwargs, result):
        box.current.points += int(np.asarray(_arg(args, kwargs, 0, "points")).size // 2)

    def on_train(args, kwargs, result):
        box.current.clip_events += result.clip_events

    def on_search(args, kwargs, result):
        box.current.failed_trials += sum(t.status != "ok" for t in result.trials)

    def on_generate(args, kwargs, result):
        prefix_len = len(_arg(args, kwargs, 1, "prefix"))
        c = box.current
        c.generated += len(result)
        c.tokens_sampled += sum(len(r.tokens) - prefix_len for r in result)
        c.unterminated += sum(not r.terminated for r in result)
        c.distinct += len({tuple(strip(r.tokens[prefix_len:])) for r in result})

    def on_score(args, kwargs, result):
        box.current.scored_pairs.append((_arg(args, kwargs, 0, "cand"), _arg(args, kwargs, 1, "ref")))

    return {
        "cellspace.cluster_points": on_cluster,
        "models.train": on_train,
        "hypersearch.search": on_search,
        "models.generate_batch": on_generate,
        "metrics.score_vector": on_score,
    }


def merge_stats(a: SectionStats, b: SectionStats) -> SectionStats:
    def add(x, y):
        return {k: x.get(k, 0) + y.get(k, 0) for k in set(x) | set(y)}

    return SectionStats(add(a.calls, b.calls), add(a.self_s, b.self_s), add(a.incl_s, b.incl_s))


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _combos(c: Counters) -> np.ndarray:
    return np.asarray([alignment_combos(cand, ref) for cand, ref in c.scored_pairs], dtype=float)


def _candidates(s: SectionStats) -> int:
    """Candidates scored inside ``evaluation.run_task``: in a workload that
    runs tasks, every ``score_vector`` call comes from one."""
    return s.get_calls("metrics.score_vector") if s.get_calls("evaluation.run_task") else 0


def _trial_s(s: SectionStats) -> float:
    """Time ``hypersearch.search`` spends in traced calls other than the GP:
    the trials' model set-up, training and validation, and the minimizer's loop."""
    if not s.get_calls("hypersearch.search"):
        return 0.0
    gp = s.get_incl("hypersearch.gp_fit", "hypersearch.expected_improvement")
    return s.get_incl("hypersearch.search") - s.get_self("hypersearch.search") - gp


def _pct(c: Counters, q: float) -> float:
    arr = _combos(c)
    return float(np.percentile(arr, q)) if arr.size else 0.0


# name -> (unit, better, value from (stats, counters))
PER_LAYER = {
    # set-up stages, inclusive
    "synthworld.simulate_trips_s": ("s", "lower", lambda s, c: s.get_incl("synthworld.simulate_trips")),
    "cellspace.cluster_points_s": ("s", "lower", lambda s, c: s.get_incl("cellspace.cluster_points")),
    "cellspace.discretize_s": ("s", "lower", lambda s, c: s.get_incl("cellspace.discretize_trajectory")),
    "cellspace.points": ("count", "lower", lambda s, c: c.points),
    "corpus.compute_accumulation_s": ("s", "lower", lambda s, c: s.get_incl("corpus.compute_accumulation")),
    "corpus.window_s": ("s", "lower", lambda s, c: s.get_incl("corpus.traffic_window")),
    "corpus.window_calls": ("count", "lower", lambda s, c: s.get_calls("corpus.traffic_window")),
    "corpus.io_s": ("s", "lower", lambda s, c: s.get_incl(*IO_FUNCTIONS)),
    "nncore.checkpoint_io_s": ("s", "lower",
                               lambda s, c: s.get_incl("nncore.save_checkpoint", "nncore.load_checkpoint")),
    # training layers, self time
    "nncore.lstm_forward_s": ("s", "lower", lambda s, c: s.get_self("nncore.lstm_step", "nncore.lstm_step_cached")),
    "nncore.lstm_forward_calls": ("count", "lower",
                                  lambda s, c: s.get_calls("nncore.lstm_step", "nncore.lstm_step_cached")),
    "nncore.lstm_backward_s": ("s", "lower", lambda s, c: s.get_self("nncore.lstm_backward")),
    "nncore.lstm_backward_calls": ("count", "lower", lambda s, c: s.get_calls("nncore.lstm_backward")),
    "nncore.sigmoid_s": ("s", "lower", lambda s, c: s.get_self("nncore.sigmoid")),
    "nncore.softmax_ce_s": ("s", "lower", lambda s, c: s.get_self("nncore.softmax_cross_entropy")),
    "nncore.softmax_ce_calls": ("count", "lower", lambda s, c: s.get_calls("nncore.softmax_cross_entropy")),
    "models.loss_and_grads_s": ("s", "lower", lambda s, c: s.get_self("models.loss_and_grads")),
    "models.train_s": ("s", "lower", lambda s, c: s.get_self("models.train")),
    "nncore.adam_s": ("s", "lower", lambda s, c: s.get_self("nncore.adam_update")),
    "nncore.adam_calls": ("count", "lower", lambda s, c: s.get_calls("nncore.adam_update")),
    "nncore.clip_s": ("s", "lower", lambda s, c: s.get_incl("nncore.clip_global_norm")),  # inclusive
    "models.clip_events": ("count", "lower", lambda s, c: c.clip_events),
    "models.mean_loss_s": ("s", "lower", lambda s, c: s.get_incl("models.mean_loss")),  # inclusive
    # search, inclusive
    "hypersearch.trial_s": ("s", "lower", lambda s, c: _trial_s(s)),
    "hypersearch.gp_s": ("s", "lower",
                         lambda s, c: s.get_incl("hypersearch.gp_fit", "hypersearch.expected_improvement")),
    "hypersearch.failed_trials": ("count", "lower", lambda s, c: c.failed_trials),
    # generation
    "models.generate_batch_s": ("s", "lower", lambda s, c: s.get_self("models.generate_batch")),
    "nncore.softmax_s": ("s", "lower", lambda s, c: s.get_self("nncore.softmax")),
    "nncore.softmax_calls": ("count", "lower", lambda s, c: s.get_calls("nncore.softmax")),
    "models.tokens_sampled": ("count", "lower", lambda s, c: c.tokens_sampled),
    "models.unterminated_share": ("ratio", "lower", lambda s, c: _share(c.unterminated, c.generated)),
    # scoring; the metric families are inclusive
    "metrics.score_vector_s": ("s", "lower", lambda s, c: s.get_incl("metrics.score_vector")),
    "metrics.bleu_s": ("s", "lower", lambda s, c: s.get_incl("metrics.bleu_n")),
    "metrics.precision_calls": ("count", "lower", lambda s, c: s.get_calls("metrics.modified_precision")),
    "metrics.meteor_s": ("s", "lower", lambda s, c: s.get_incl("metrics.meteor")),
    "metrics.meteor_align_s": ("s", "lower", lambda s, c: s.get_incl("metrics.meteor_align")),
    "metrics.alignment_combos_p50": ("count", "lower", lambda s, c: _pct(c, 50)),
    "metrics.alignment_combos_p99": ("count", "lower", lambda s, c: _pct(c, 99)),
    "metrics.above_20000_share": ("ratio", "lower",
                                  lambda s, c: float(np.mean(_combos(c) > EXACT_CAP)) if c.scored_pairs else 0.0),
    "tokens.strip_virtual_calls": ("count", "lower", lambda s, c: s.get_calls("tokens.strip_virtual")),
    "evaluation.run_task_s": ("s", "lower", lambda s, c: s.get_self("evaluation.run_task")),
    "evaluation.candidates": ("count", "lower", lambda s, c: _candidates(s)),
    "evaluation.distinct_share": ("ratio", "higher", lambda s, c: _share(c.distinct, _candidates(s))),
}
OVERHEAD = "trace.overhead_s"


def per_layer_values(stats: SectionStats, counters: Counters) -> dict[str, float]:
    return {name: float(fn(stats, counters)) for name, (_, _, fn) in PER_LAYER.items()}


def units() -> dict[str, str]:
    out = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    out[OVERHEAD] = "s"
    return out
