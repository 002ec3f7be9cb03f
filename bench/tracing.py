"""Outside-in instrumentation: wrap the public functions the program's
modules call each other through, and restore them afterwards.

`Probe` is the untraced instrument: it only times `engine.run_generation`
and captures run and grid results. `Tracer` is the traced instrument: it
wraps every layer boundary, keeps spans in memory, and counts the work done
at each boundary. Hot per-subset calls (fits, validity, objectives) and
per-child calls (breeding, provider, viability) are aggregated per name
instead of being kept as individual spans, so the trace stays small.
"""

from __future__ import annotations

import math
import time
from collections import Counter

from evoreg import (cli, descriptors, engine, experiment, genome, regress,
                    scores, stats)
from evoreg.regress import GramFitter

LAYERS = ("cli", "engine", "regress", "scores", "strategy", "genome",
          "descriptors", "experiment", "stats")
METHODS = ("proportional", "tournament", "deterministic")
CRITERIA = ("finite", "non_constant", "cv", "jarque_bera", "simple_r2")
MAX_SPANS = 200_000


class InstrumentError(RuntimeError):
    """The instrumentation disagrees with the program or did not undo itself."""


class Patches:
    """Replaced attributes, restored in reverse order and then verified."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self):
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in saved
                 if vars(o)[a] is not orig]
        if stale:
            raise InstrumentError(f"not restored: {', '.join(stale)}")


class Probe:
    """Per-generation timing at the run_generation boundary, plus the
    results the checks need. Installed for the whole worker process."""

    def __init__(self):
        self.patches = Patches()
        self.speed = None   # a Speedometer sampled between generations
        self.first_gen_ns = None
        self.generations: list[tuple[int, int]] = []   # (start, end) ns
        self.results = []
        self.grids = []

    def begin(self):
        """Forget the previous command (the wrappers hold these lists)."""
        self.first_gen_ns = None
        self.generations.clear()
        self.results.clear()
        self.grids.clear()

    def install(self):
        clock = time.perf_counter_ns

        def timed_generation(original):
            def run_generation(state):
                if self.speed is not None:
                    self.speed.maybe_read()
                t0 = clock()
                if self.first_gen_ns is None:
                    self.first_gen_ns = t0
                record = original(state)
                self.generations.append((t0, clock()))
                return record
            return run_generation

        def captured(sink):
            def make(original):
                def wrapper(*args, **kwargs):
                    result = original(*args, **kwargs)
                    sink.append(result)
                    return result
                return wrapper
            return make

        self.patches.replace(engine, "run_generation", timed_generation)
        self.patches.replace(engine, "run", captured(self.results))
        self.patches.replace(experiment, "run", captured(self.results))
        self.patches.replace(experiment, "run_grid", captured(self.grids))

    def uninstall(self):
        self.patches.restore()


class Tracer:
    """Spans and counters at every layer boundary, summed over the traced
    commands of a run."""

    def __init__(self):
        self.patches = Patches()
        self.agg: dict[str, list[int]] = {}     # name -> [calls, total, self] ns
        self.counts: Counter = Counter()
        self.spans: list[list] = []             # [name, start, end, parent]
        self.spans_dropped = 0
        self.runs: list[dict] = []              # per engine.run: generation counters
        self.commands = 0
        self._frames = [[0, -1]]                # [child ns, span index]
        self._in_generation = False
        self._phase = "selection"
        self._seen: set[str] = set()

    # --- the wrapper -------------------------------------------------------

    def _wrap(self, original, name, span=False, before=None, observe=None):
        """Time `original`; `name` may be a function of the call arguments."""
        frames, spans = self._frames, self.spans
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            key = name(args) if callable(name) else name
            if before is not None:
                before(args)
            index = -1
            if span:
                if len(spans) < MAX_SPANS:
                    index = len(spans)
                    spans.append([key, 0, 0, tracer._open_span()])
                else:
                    tracer.spans_dropped += 1
            frame = [0, index]
            frames.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(key, frame, t0, clock())
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _leaf(self, original, key, observe=None, on_error=None):
        """`_wrap` for hot calls: fixed name, no span, the bookkeeping
        inlined to keep the tracing overhead per call small."""
        frames, clock = self._frames, time.perf_counter_ns
        agg = self.agg.setdefault(key, [0, 0, 0])

        def wrapper(*args, **kwargs):
            frame = [0, -1]
            frames.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(args, exc)
                raise
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _open_span(self) -> int:
        for frame in reversed(self._frames):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def _close(self, key, frame, t0, t1):
        dt = t1 - t0
        self._frames.pop()
        self._frames[-1][0] += dt
        agg = self.agg.get(key)
        if agg is None:
            agg = self.agg[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - frame[0]
        if frame[1] >= 0:
            self.spans[frame[1]][1:3] = [t0, t1]

    def command(self, call, argv):
        """Run one CLI command as the root span `cli.main`."""
        self.commands += 1
        self._seen = set()
        return self._wrap(call, "cli.main", span=True)(argv)

    # --- observers -----------------------------------------------------------

    def _begin_run(self, args):
        self.runs.append({"generations": [], "result": None})

    def _end_run(self, args, result):
        self.runs[-1]["result"] = result

    def _begin_generation(self, args):
        self._in_generation = True
        self._phase = "selection"
        self._gen_start = (self.agg.get("regress.fit_assessed", [0])[0],
                           self.counts["valid"], self.counts["children"])

    def _end_generation(self, args, record):
        self._in_generation = False
        subsets0, valid0, children0 = self._gen_start
        self.runs[-1]["generations"].append((
            self.agg.get("regress.fit_assessed", [0])[0] - subsets0,
            self.counts["valid"] - valid0,
            self.counts["children"] - children0,
        ))

    def _assessed(self, args, models):
        self.counts["valid"] += sum(m.valid for m in models)
        self.counts["demoted"] += sum(not m.with_intercept for m in models)

    def _singular(self, args, exc):
        if isinstance(exc, regress.SingularFitError):
            self.counts["singular"] += 1

    def _bred(self, args, children):
        self.counts["children"] += len(children)

    def _provided(self, args, phenotype):
        key = args[1].render()
        if self._in_generation:
            self.counts["new_keys"] += key not in self._seen
        self._seen.add(key)

    def _screened(self, args, report):
        if self._in_generation:
            for criterion in report.failed_criteria():
                self.counts["nonviable." + criterion] += 1

    def _survival(self, args, values):
        self._phase = "survival"

    def _where(self, base):
        return lambda args: base if self._in_generation else base + ".init"

    # --- installation ----------------------------------------------------------

    def install(self):
        w, leaf, r = self._wrap, self._leaf, self.patches.replace
        r(engine, "run", lambda f: w(f, "engine.run", True,
                                     self._begin_run, self._end_run))
        r(experiment, "run", lambda f: w(f, "engine.run", True,
                                         self._begin_run, self._end_run))
        r(engine, "init_sample", lambda f: w(f, "engine.init", True))
        r(engine, "run_generation", lambda f: w(
            f, "engine.generation", True,
            self._begin_generation, self._end_generation))
        r(engine, "GramFitter", lambda f: w(f, "regress.gram", True))
        r(GramFitter, "fit", lambda f: leaf(f, "regress.fit",
                                            on_error=self._singular))
        r(engine, "fit_assessed", lambda f: leaf(f, "regress.fit_assessed",
                                                 observe=self._assessed))
        r(regress, "t_critical", lambda f: leaf(f, "stats.t_critical"))
        r(engine, "objective_score", lambda f: leaf(f, "scores.objective"))
        r(scores, "objective_score", lambda f: leaf(f, "scores.objective"))
        r(engine, "selection_scores", lambda f: w(f, "scores.selection", True))
        r(engine, "transform_scores", lambda f: w(
            f, lambda a: "scores.transform." + self._phase, True))
        r(engine, "survival_scores", lambda f: w(
            f, "scores.survival", True, observe=self._survival))
        r(engine, "extract", lambda f: w(
            f, lambda a: "strategy.extract." + a[0], True))
        r(genome, "mutate", lambda f: leaf(f, "genome.mutate"))
        r(genome, "mutate_per_gene", lambda f: leaf(f, "genome.mutate"))
        r(genome, "crossover", lambda f: leaf(f, "genome.crossover",
                                              observe=self._bred))
        r(genome, "random_genotype", lambda f: leaf(f, "genome.random"))
        for cls in (descriptors.SyntheticProvider, descriptors.TableProvider):
            r(cls, "provide", lambda f: w(f, self._where("descriptors.provide"),
                                          observe=self._provided))
        r(engine, "check_viability", lambda f: w(
            f, self._where("descriptors.viability"), observe=self._screened))
        r(descriptors, "load_descriptor_table",
          lambda f: w(f, "descriptors.load", True))
        r(descriptors, "load_activity",
          lambda f: w(f, "descriptors.load_activity", True))
        r(descriptors, "pick_planted_genotypes",
          lambda f: w(f, "descriptors.pick_planted", True))
        r(cli, "load_topology",
          lambda f: w(f, "genome.load_topology", True))
        r(experiment, "run_grid", lambda f: w(f, "experiment.run_grid", True))
        r(experiment, "accumulate_run",
          lambda f: w(f, "experiment.accumulate", True))
        r(experiment, "render_grid_report",
          lambda f: w(f, "experiment.report", True))
        r(experiment, "homogeneity_analysis",
          lambda f: w(f, "experiment.homogeneity", True))
        r(experiment.GridAggregate, "contingency",
          lambda f: w(f, "experiment.contingency", True))
        r(experiment, "chi2_homogeneity", lambda f: w(f, "stats.chi2", True))
        r(stats, "format_report", lambda f: w(f, "stats.format_report", True))
        r(stats, "write_contingency_csv",
          lambda f: w(f, "stats.write_csv", True))

    def uninstall(self):
        self.patches.restore()


def reconcile(runs, logs, spec) -> None:
    """Counters of traced runs against the program's own run logs: C(p,n)
    subsets and 2k children per generation, and valid counts equal to the
    log's valid= fields. Raises InstrumentError on any mismatch."""
    subsets = math.comb(spec["p"], spec["n"])
    children = 2 * spec["k"]
    if len(runs) != len(logs):
        raise InstrumentError(f"{len(runs)} traced runs but {len(logs)} logs")
    for i, (run, log_valid) in enumerate(zip(runs, logs)):
        counted = run["generations"]
        if len(counted) != len(log_valid):
            raise InstrumentError(f"run {i}: {len(counted)} traced generations, "
                                  f"{len(log_valid)} logged")
        for g, ((s, v, c), logged) in enumerate(zip(counted, log_valid), 1):
            if s != subsets:
                raise InstrumentError(f"run {i} gen {g}: {s} subsets != C(p,n)"
                                      f" = {subsets}")
            if c != children:
                raise InstrumentError(f"run {i} gen {g}: {c} children != 2k "
                                      f"= {children}")
            if v != logged:
                raise InstrumentError(f"run {i} gen {g}: {v} valid models "
                                      f"counted, run log says {logged}")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of all traced commands: per generation unless the
    unit says otherwise."""
    agg, counts = tracer.agg, tracer.counts
    gens = sum(len(r["generations"]) for r in tracer.runs) or 1
    runs = len(tracer.runs) or 1
    commands = tracer.commands or 1

    def calls(*keys):
        return sum(agg.get(k, (0, 0, 0))[0] for k in keys)

    def ms(*keys):
        return sum(agg.get(k, (0, 0, 0))[1] for k in keys) / 1e6

    def us_per_call(key):
        return ms(key) * 1e3 / calls(key) if calls(key) else 0.0

    provided = calls("descriptors.provide")
    out = {
        "regress.sweep_ms": (ms("regress.fit_assessed") / gens, "ms/gen"),
        "regress.fit_calls": (calls("regress.fit") / gens, "count/gen"),
        "regress.fit_us": (us_per_call("regress.fit"), "us/call"),
        "regress.gram_ms": (ms("regress.gram") / gens, "ms/gen"),
        "regress.subsets": (calls("regress.fit_assessed") / gens, "count/gen"),
        "regress.singular": (counts["singular"] / gens, "count/gen"),
        "regress.demoted": (counts["demoted"] / gens, "count/gen"),
        "regress.valid_ratio": (
            counts["valid"] / max(1, calls("regress.fit_assessed")), "ratio"),
        "stats.t_critical_calls": (calls("stats.t_critical") / gens,
                                   "count/gen"),
        "stats.t_critical_us": (us_per_call("stats.t_critical"), "us/call"),
        "scores.selection_ms": (
            ms("scores.selection", "scores.transform.selection") / gens,
            "ms/gen"),
        "scores.survival_ms": (
            ms("scores.survival", "scores.transform.survival") / gens,
            "ms/gen"),
        "scores.objective_calls": (calls("scores.objective") / gens,
                                   "count/gen"),
        "scores.objective_ms": (ms("scores.objective") / gens, "ms/gen"),
        "genome.breed_ms": (ms("genome.mutate", "genome.crossover") / gens,
                            "ms/gen"),
        "genome.children": (counts["children"] / gens, "count/gen"),
        "descriptors.provide_ms": (ms("descriptors.provide") / gens, "ms/gen"),
        "descriptors.provide_calls": (provided / gens, "count/gen"),
        "descriptors.new_key_ratio": (
            counts["new_keys"] / provided if provided else 0.0, "ratio"),
        "descriptors.viability_ms": (ms("descriptors.viability") / gens,
                                     "ms/gen"),
        "descriptors.duplicates": (
            (counts["children"] - provided) / gens, "count/gen"),
        "descriptors.load_ms": (ms("descriptors.load") / commands, "ms/cmd"),
        "engine.init_ms": (ms("engine.init") / runs, "ms/run"),
        "engine.self_ms": (agg.get("engine.generation", (0, 0, 0))[2] / 1e6
                           / gens, "ms/gen"),
        "experiment.accumulate_ms": (ms("experiment.accumulate") / commands,
                                     "ms/cmd"),
        "experiment.report_ms": (ms("experiment.report") / commands,
                                 "ms/cmd"),
        "stats.chi2_ms": (ms("stats.chi2") / commands, "ms/cmd"),
        "cli.self_ms": (agg.get("cli.main", (0, 0, 0))[2] / 1e6 / commands,
                        "ms/cmd"),
    }
    for method in METHODS:
        key = "strategy.extract." + method
        out[f"strategy.extract_ms.{method}"] = (ms(key) / gens, "ms/gen")
        out[f"strategy.extract_calls.{method}"] = (calls(key) / gens,
                                                   "count/gen")
    for criterion in CRITERIA:
        out[f"descriptors.nonviable.{criterion}"] = (
            counts["nonviable." + criterion] / gens, "count/gen")
    total = ms("cli.main") or 1.0
    self_ms = Counter()
    for key, (_, _, self_ns) in agg.items():
        self_ms[key.split(".", 1)[0]] += self_ns / 1e6
    for layer in LAYERS:
        out[f"share.{layer}_pct"] = (100.0 * self_ms[layer] / total, "%")
    return out
