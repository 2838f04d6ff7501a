"""The three benchmark workloads: seeded inputs, set-up, and one timed round.

Every call into the program goes through a module attribute
(``models.train``, not a name imported from it), so the tracer's patches
see it. A workload's ``setup`` builds everything its rounds need; a
``run_round`` does one fixed unit of timed work and returns what the
checks and metrics need.

Rounds are short (one to two seconds on a 2-vCPU x86 machine), so that a
run takes every phase at its fastest over a dozen rounds or more.

- ``fit``: the README world (4x8 grid, 720 min, epsilon 0.1), 2,000 trips,
  so about 1,600 training sequences. Each round trains rnn and arnn
  (d = 16, lr 3e-3, one epoch) from fixed inits on the first 192 of them
  at batch size 1 and then at batch size 32, computes the validation loss
  on 64 sequences after the B = 1 phase, and runs a 4-trial GP-EI search
  on 32/16 sequences.
- ``evaluate``: 400 trips of the same world, 5% of them in the test split;
  both models are trained in set-up (three epochs at lr 1e-2). Each round
  evaluates every (sequence, g) task of the test split at k = 20, then
  aggregates, compares and writes the score files.
- ``score_revisit``: seeded candidate/reference pairs from random walks
  with back-steps over an 8-cell alphabet, scored with
  ``metrics.score_vector``. The pairs are drawn to fixed quotas per band, so
  every seed has the same mix of cheap and expensive pairs: pairs in the
  exact METEOR branch by their alignment combinations, pairs above 20,000
  combinations (15 of 188, 8%) by the work their beam search does, four of
  them also above 100,000 combinations. Beam pairs whose estimated work
  exceeds the top band (about 0.15 s each on a 2-vCPU x86 machine) are
  left out, so that a round stays short. So are beam pairs whose largest
  candidate list would exceed 5 MB, and one pair per seed has a list of
  4 to 5 MB, so that the peak memory of the beam does not depend on the
  seed.
"""
from __future__ import annotations

import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cellseq import cellspace, corpus, evaluation, hypersearch, metrics, models, synthworld
from cellseq.tokens import Vocab
from checks import (EXACT_CAP, Outcome, alignment_combos, beam_estimate, check_evaluate, check_revisit,
                    combo_summary, strip)

WORLD = dict(rows=4, cols=8, spacing=300.0)  # generate_world defaults: 720 min, 30-min blocks, epsilon 0.1
RADIUS = 135.0
SPLIT = (0.8, 0.1, 0.1)
DIMS = models.ModelDims(d_e=16, d_h=16)
LR = 3e-3
INIT_SEED = {"rnn": 1, "arnn": 2}
SHUFFLE_SEED = 5
MODEL_CLASS = {"rnn": models.RnnModel, "arnn": models.ArnnModel}

FIT_TRIPS = 2000
# a round trains on a fixed slice of the corpus, so that it is short and a
# run takes every phase at its fastest over many rounds
FIT_TRAIN, FIT_VAL = 192, 64
FIT_PHASES = (("rnn", 1), ("arnn", 1), ("rnn", 32), ("arnn", 32))
SEARCH_TRIALS = 4
SEARCH_TRAIN, SEARCH_VAL = 32, 16

EVAL_TRIPS = 400
EVAL_SPLIT = (0.8, 0.15, 0.05)  # a test split of 20 sequences keeps a round short
EVAL_EPOCHS = 3
EVAL_LR = 1e-2  # converges within set-up, so candidates repeat within a task as trained models' do
EVAL_K = 20

ALPHABET = 8
BACK_STEP = 0.35
REF_LENGTHS = (4, 12)
# (label, lowest, highest, pairs drawn): pairs in METEOR's exact branch by
# their alignment combinations, which is what the exhaustive search costs
COMBO_BANDS = (
    ("1-9", 1, 9, 75),
    ("10-99", 10, 99, 40),
    ("100-999", 100, 999, 30),
    ("1000-2499", 1000, 2499, 12),
    ("2500-4999", 2500, 4999, 8),
    ("5000-9999", 5000, 9999, 5),
    ("10000-20000", 10000, EXACT_CAP, 3),
)
# the same for pairs above EXACT_CAP, by the work checks.beam_estimate gives,
# which predicts the beam's time within a factor of two (about 60 ns per unit
# on a 2-vCPU x86 machine); the top band reaches 2e6 units, about 0.15 s
BEAM_BANDS = (
    ("beam<5e5", 0, 500_000, 6),
    ("beam5e5-1e6", 500_001, 1_000_000, 3),
    ("beam1e6-2e6", 1_000_001, 2_000_000, 1),
)
# (label, lowest combinations, work band, pairs drawn): beam pairs of one
# work band that face the largest occurrence products, at a fixed cost
ABOVE_100000_BAND = ("beam5e5-1e6,combos>1e5", 100_001, "beam5e5-1e6", 4)
# (label, lowest, highest, pairs drawn) by the list size checks.beam_estimate
# gives: the one beam pair with the widest list, which sets the beam's peak
# memory; no pair may go above it
WIDEST_BAND = ("widest4-5MB", 4_000_000, 5_000_000, 1)
PAIR_DRAWS = 2500  # draws on every seed, so that set-up does the same work; seeds 1 to 30 fill the quotas within 1,200


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class RoundResult:
    """One timed round. ``phases`` maps a phase to (work items, seconds);
    work items are sequences trained, tasks evaluated or pairs scored, and
    phases that only support them (validation, aggregation) count none."""

    phases: dict[str, tuple[int, float]]
    wall_s: float  # whole round, program file I/O included, checks excluded
    quality: float
    values: dict[str, float]  # named end-to-end values that are not times
    fingerprints: dict[str, str]
    outputs_digest: str = ""  # outputs a repeated round must reproduce beyond the fingerprints
    detail: dict = field(default_factory=dict)  # what the first-round checks need

    @property
    def units(self) -> int:
        return sum(n for n, _ in self.phases.values())


# ---------------------------------------------------------------------------
# corpus set-up shared by fit and evaluate


@dataclass
class Corpus:
    dataset: corpus.Dataset
    vocab: Vocab
    lookup: corpus.TrafficLookup
    examples: dict[tuple[str, str], list]  # (split, kind) -> TrainingExample list
    digest: str


def build_corpus(seed: int, n_trips: int, workdir: Path, outcome: Outcome, split=SPLIT) -> Corpus:
    """Synthesize, discretize and accumulate, with every artifact written and
    read back through the program's own file formats."""
    world = synthworld.generate_world(seed=seed, **WORLD)
    synthworld.save_world(workdir / "world.json", world)
    world = synthworld.load_world(workdir / "world.json")
    simulated = synthworld.simulate_trips(world, n_trips, seed=seed + 1)
    corpus.write_trajectories(workdir / "trips.tsv", simulated)
    trips = corpus.load_and_terminate(corpus.read_trajectory_rows(workdir / "trips.tsv"))
    same_trips = len(trips) == len(simulated) and all(
        a.trip_id == b.trip_id and np.array_equal(a.points, b.points) for a, b in zip(trips, simulated)
    )

    train_idx, val_idx, test_idx = corpus.split_indices(len(trips), split, seed=seed + 2)
    cmap = cellspace.cluster_points(np.concatenate([trips[i].xy for i in train_idx]), radius=RADIUS)
    cellspace.save_cellmap(workdir / "cellmap.tsv", cmap)
    loaded_cmap = cellspace.load_cellmap(workdir / "cellmap.tsv")
    same_cmap = np.array_equal(loaded_cmap.centroids, cmap.centroids)

    def records(indices):
        return tuple(
            corpus.SequenceRecord(trips[i].trip_id, trips[i].start_time,
                                  cellspace.discretize_trajectory(trips[i], loaded_cmap).tokens)
            for i in indices
        )

    built = corpus.Dataset(train=records(train_idx), validation=records(val_idx), test=records(test_idx))
    corpus.save_sequences(workdir / "sequences.tsv", built)
    dataset = corpus.load_sequences(workdir / "sequences.tsv")
    same_dataset = dataset == built

    series = corpus.compute_accumulation(trips, loaded_cmap)
    train_series = corpus.compute_accumulation([trips[i] for i in train_idx], loaded_cmap)
    normalized = corpus.normalize(series, maxima=train_series.maxima)
    corpus.save_accumulation(workdir / "accumulation.tsv", normalized)
    loaded_acc = corpus.load_accumulation(workdir / "accumulation.tsv")
    same_acc = np.array_equal(loaded_acc.counts, normalized.counts) and loaded_acc.minute0 == normalized.minute0

    cells = {t for rec in dataset.train for t in strip(rec.tokens)}
    vocab = Vocab(cells)
    lookup = corpus.TrafficLookup(loaded_acc, vocab.cells)
    examples = {}
    for split in ("train", "validation"):
        usable = [r for r in getattr(dataset, split) if all(t in vocab for t in r.tokens)]
        examples[(split, "rnn")] = [models.make_example(vocab, r.tokens) for r in usable]
        examples[(split, "arnn")] = [
            models.make_example(vocab, r.tokens, lookup.window(r.start_time)) for r in usable
        ]

    checks = {"trips": same_trips, "cellmap": same_cmap, "sequences": same_dataset, "accumulation": same_acc}
    bad = [name for name, ok in checks.items() if not ok]
    outcome.record(len(checks), len(bad), f"round trip changed: {', '.join(bad)}")
    digest = sha256((workdir / "sequences.tsv").read_bytes() + (workdir / "accumulation.tsv").read_bytes())
    return Corpus(dataset, vocab, lookup, examples, digest)


def length_histogram(dataset: corpus.Dataset) -> dict[str, int]:
    counts = Counter(rec.m for rec in dataset.all())
    return {str(m): counts[m] for m in sorted(counts)}


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# fit


@dataclass
class FitState:
    corpus: Corpus
    setup_digest: str


class Fit:
    name = "fit"
    rounds_per_setup = 1

    def setup(self, seed: int, workdir: Path, outcome: Outcome) -> FitState:
        c = build_corpus(seed, FIT_TRIPS, workdir, outcome)
        return FitState(c, c.digest)

    def run_round(self, state: FitState, seed: int, workdir: Path, outcome: Outcome) -> RoundResult:
        c = state.corpus
        started = time.perf_counter()
        phases: dict[str, tuple[int, float]] = {}
        values: dict[str, float] = {}
        fingerprints: dict[str, str] = {}
        clip_events = {}
        for kind, batch in FIT_PHASES:
            name = kind if batch == 1 else f"{kind}_b{batch}"
            examples = c.examples[("train", kind)][:FIT_TRAIN]
            model = MODEL_CLASS[kind].init(c.vocab, DIMS, seed=INIT_SEED[kind])
            t0 = time.perf_counter()
            result = models.train(model, examples, lr=LR, epochs=1, seed=SHUFFLE_SEED, batch_size=batch)
            phases[f"train_{name}"] = (len(examples), time.perf_counter() - t0)
            clip_events[name] = result.clip_events
            losses_ok = _finite(result.epoch_losses)
            if batch == 1:
                t0 = time.perf_counter()
                values[f"val_loss_{kind}"] = models.mean_loss(model, c.examples[("validation", kind)][:FIT_VAL])
                phases[f"val_{kind}"] = (0, time.perf_counter() - t0)
                losses_ok = losses_ok and math.isfinite(values[f"val_loss_{kind}"])
            outcome.record(1, 0 if losses_ok else 1, f"non-finite loss in {name}")
            path = workdir / f"{name}.ckpt"
            models.save_model(path, model)
            fingerprints[f"checkpoint_{name}"] = sha256(path.read_bytes())
            loaded, _ = models.load_model(path)
            same = loaded.params.keys() == model.params.keys() and all(
                np.array_equal(loaded.params[k], model.params[k]) for k in model.params
            )
            outcome.record(1, 0 if same else 1, f"checkpoint round trip changed {name}")

        data = hypersearch.TrainValData(
            c.vocab, tuple(c.examples[("train", "rnn")][:SEARCH_TRAIN]),
            tuple(c.examples[("validation", "rnn")][:SEARCH_VAL]),
        )
        t0 = time.perf_counter()
        search = hypersearch.search(hypersearch.SearchSpace(), "rnn", data, budget_trials=SEARCH_TRIALS,
                                    seed=0, trial_epochs=1)
        phases["search"] = (SEARCH_TRIALS * SEARCH_TRAIN, time.perf_counter() - t0)
        outcome.record(1, 0 if len(search.trials) == SEARCH_TRIALS else 1, "search ran the wrong number of trials")
        mean_val = (values["val_loss_rnn"] + values["val_loss_arnn"]) / 2
        return RoundResult(
            phases=phases, wall_s=time.perf_counter() - started, quality=math.exp(-mean_val),
            values=values, fingerprints=fingerprints,
            detail={"clip_events": clip_events, "failed_trials": sum(t.status != "ok" for t in search.trials)},
        )

    def check(self, state: FitState, first: RoundResult, fastest, seed: int, oracles, outcome: Outcome) -> dict:
        """Losses and round trips are checked inside the round; report the inputs."""
        c = state.corpus
        return {
            "sequence_lengths": length_histogram(c.dataset),
            "train_sequences": len(c.examples[("train", "rnn")]),
            "validation_sequences": len(c.examples[("validation", "rnn")]),
            "trained_per_phase": len(c.examples[("train", "rnn")][:FIT_TRAIN]),
            "validated_per_phase": len(c.examples[("validation", "rnn")][:FIT_VAL]),
            "clip_events": first.detail["clip_events"],
            "search_failed_trials": first.detail["failed_trials"],
            "tokens_sampled": 0,
        }


# ---------------------------------------------------------------------------
# evaluate


@dataclass
class EvalState:
    corpus: Corpus
    models: dict
    test: list
    setup_digest: str


class Evaluate:
    name = "evaluate"
    rounds_per_setup = 3  # training makes set-up longer than a round

    def setup(self, seed: int, workdir: Path, outcome: Outcome) -> EvalState:
        c = build_corpus(seed, EVAL_TRIPS, workdir, outcome, EVAL_SPLIT)
        trained = {}
        blobs = b""
        for kind in ("rnn", "arnn"):
            model = MODEL_CLASS[kind].init(c.vocab, DIMS, seed=INIT_SEED[kind])
            result = models.train(model, c.examples[("train", kind)], lr=EVAL_LR, epochs=EVAL_EPOCHS,
                                  seed=SHUFFLE_SEED)
            ok = _finite(result.epoch_losses)
            outcome.record(1, 0 if ok else 1, f"non-finite training loss for {kind}")
            path = workdir / f"{kind}.ckpt"
            models.save_model(path, model)
            trained[kind], _ = models.load_model(path)
            blobs += path.read_bytes()
        test = [r for r in c.dataset.test if all(t in c.vocab for t in r.tokens)]
        return EvalState(c, trained, test, sha256(c.digest.encode() + blobs))

    def run_round(self, state: EvalState, seed: int, workdir: Path, outcome: Outcome) -> RoundResult:
        started = time.perf_counter()
        records = {}
        phases: dict[str, tuple[int, float]] = {}
        values: dict[str, float] = {}
        for kind in ("rnn", "arnn"):
            lookup = state.corpus.lookup if kind == "arnn" else None
            t0 = time.perf_counter()
            records[kind], _ = evaluation.evaluate_records(
                state.test, state.models[kind], lookup, master_seed=seed, k=EVAL_K)
            phases[f"eval_{kind}"] = (len(records[kind]), time.perf_counter() - t0)
            values[f"meteor_{kind}"] = float(np.mean([r.mean.meteor for r in records[kind]]))
        t0 = time.perf_counter()
        for kind in ("rnn", "arnn"):
            evaluation.aggregate_by_length(records[kind])
        evaluation.improvement_rate(records["arnn"], records["rnn"])
        fingerprints = {}
        for kind in ("rnn", "arnn"):
            path = workdir / f"scores_{kind}.tsv"
            evaluation.write_scores(path, records[kind])
            fingerprints[f"scores_{kind}"] = sha256(path.read_bytes())
        phases["report"] = (0, time.perf_counter() - t0)
        outcome.record(sum(len(r) for r in records.values()))
        quality = float(np.mean([r.mean.meteor for recs in records.values() for r in recs]))
        raw_digest = sha256(repr([[r.raw for r in recs] for recs in records.values()]).encode())
        return RoundResult(phases=phases, wall_s=time.perf_counter() - started, quality=quality,
                           values=values, fingerprints=fingerprints, outputs_digest=raw_digest,
                           detail={"records": records})

    def check(self, state: EvalState, first: RoundResult, fastest, seed: int, oracles, outcome: Outcome) -> dict:
        props = check_evaluate(state, seed, EVAL_K, first.detail["records"], oracles, outcome)
        props["sequence_lengths"] = length_histogram(state.corpus.dataset)
        props["test_sequences"] = len(state.test)
        return props


# ---------------------------------------------------------------------------
# score_revisit


def _walk(rng: np.random.Generator, length: int) -> list[int]:
    """Walk on a line of ALPHABET cells: forward, or back with BACK_STEP,
    reflecting at the ends. Consecutive cells always differ."""
    cell = int(rng.integers(1, ALPHABET + 1))
    out = [cell]
    while len(out) < length:
        step = -1 if rng.random() < BACK_STEP else 1
        nxt = cell + step
        if not 1 <= nxt <= ALPHABET:
            nxt = cell - step
        out.append(nxt)
        cell = nxt
    return out


def candidate_cap(ref_len: int) -> int:
    """Longest continuation generation allows after a one-cell prefix: the
    whole sequence has ref_len + 3 tokens, and the cap counts the two prefix
    tokens (#start and the first cell)."""
    return models.default_max_len(ref_len + 3) - 2


ALL_BANDS = COMBO_BANDS + BEAM_BANDS + (ABOVE_100000_BAND, WIDEST_BAND)


def bands_of(combos: int, cand, ref) -> list[str]:
    """The bands a pair may fill, in order of preference; none above them all."""
    if combos <= EXACT_CAP:
        return [label for label, lo, hi, _ in COMBO_BANDS if lo <= combos <= hi]
    work, list_bytes = beam_estimate(cand, ref)
    label, lo, hi, _ = WIDEST_BAND
    if list_bytes > hi or work > BEAM_BANDS[-1][2]:
        return []
    out = [label] if list_bytes >= lo else []
    by_work = [label for label, lo, hi, _ in BEAM_BANDS if lo <= work <= hi]
    label, lo, band, _ = ABOVE_100000_BAND
    if combos >= lo and band in by_work:
        out.append(label)
    return out + by_work


def make_pairs(seed: int) -> list[tuple[list[int], list[int], int, str]]:
    """Distinct (candidate, reference, combinations, band) tuples: PAIR_DRAWS
    draws, or more until every band holds its quota, then shuffled."""
    rng = np.random.default_rng([seed, 7])
    want = {label: n for label, _, _, n in ALL_BANDS}
    seen = set()
    pairs = []
    draws = 0
    while draws < PAIR_DRAWS or any(want.values()):
        draws += 1
        ref = _walk(rng, int(rng.integers(REF_LENGTHS[0], REF_LENGTHS[1] + 1)))
        cand = _walk(rng, int(rng.integers(1, candidate_cap(len(ref)) + 1)))
        key = (tuple(cand), tuple(ref))
        if key in seen:
            continue
        combos = alignment_combos(cand, ref)
        label = next((b for b in bands_of(combos, cand, ref) if want[b]), None)
        if label is not None:
            want[label] -= 1
            seen.add(key)
            pairs.append((cand, ref, combos, label))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


@dataclass
class RevisitState:
    pairs: list
    setup_digest: str


class ScoreRevisit:
    name = "score_revisit"
    rounds_per_setup = 1

    def setup(self, seed: int, workdir: Path, outcome: Outcome) -> RevisitState:
        pairs = make_pairs(seed)
        return RevisitState(pairs, sha256(repr(pairs).encode()))

    def run_round(self, state: RevisitState, seed: int, workdir: Path, outcome: Outcome) -> RoundResult:
        clock = time.perf_counter
        times = np.empty(len(state.pairs))
        scores = []
        started = clock()
        for i, (cand, ref, _, _) in enumerate(state.pairs):
            t0 = clock()
            try:
                sv = metrics.score_vector(cand, ref)
            except Exception as exc:  # a failing pair is counted, not fatal
                sv = None
                outcome.fail(1, f"score_vector raised {type(exc).__name__}: {exc}")
            times[i] = clock() - t0
            scores.append(sv)
        wall = clock() - started
        outcome.record(len(state.pairs))
        # each pair is its own phase, so every pair is timed at its fastest pass
        phases = {f"pair{i}": (1, float(t)) for i, t in enumerate(times)}
        meteors = [s.meteor for s in scores if s is not None]

        def digest(exact: bool) -> str:
            kept = [s.as_tuple() if s else None for s, (_, _, c, _) in zip(scores, state.pairs)
                    if (c <= EXACT_CAP) == exact]
            return sha256(repr(kept).encode())

        # exact-branch scores must survive any change to the METEOR search;
        # beam scores may change when the beam is replaced by an exact search
        return RoundResult(
            phases=phases, wall_s=wall, quality=float(np.mean(meteors)) if meteors else float("nan"),
            values={}, fingerprints={"scores_exact": digest(True), "scores_beam": digest(False)},
            detail={"scores": scores},
        )

    def check(self, state: RevisitState, first: RoundResult, fastest, seed: int, oracles,
              outcome: Outcome) -> dict:
        props = check_revisit(state.pairs, first.detail["scores"], oracles, outcome)
        refs = Counter(len(r) for _, r, _, _ in state.pairs)
        cands = Counter(len(c) // 10 * 10 for c, _, _, _ in state.pairs)
        pair_s = [t for _, t in fastest.values()]
        props.update(
            band_quotas={label: n for label, _, _, n in ALL_BANDS},
            band_fastest_s={
                label: sum(t for t, (_, _, _, lab) in zip(pair_s, state.pairs) if lab == label)
                for label, _, _, _ in ALL_BANDS
            },
            above_100000_share=float(np.mean([c > 100_000 for _, _, c, _ in state.pairs])),
            widest_beam_list_mb=max(beam_estimate(c, r)[1] for c, r, k, _ in state.pairs if k > EXACT_CAP) / 1e6,
            reference_lengths={str(m): refs[m] for m in sorted(refs)},
            candidate_lengths_by_10={f"{lo}-{lo + 9}": cands[lo] for lo in sorted(cands)},
            alignment_combos=combo_summary([c for _, _, c, _ in state.pairs]),
        )
        return props


WORKLOADS = {w.name: w for w in (Fit(), Evaluate(), ScoreRevisit())}
