"""Which jordal functions the traced run wraps, and the per-layer metrics.

Each layer is a module of src/jordal. A wrapped function is reported as
`<module>.<function>.calls` and `<module>.<function>.self_s`. Functions are
replaced by name in every jordal module that bound them (runner, cubic,
symmetry and geometry import jordan_mul or partial_polarize by name), and
methods on their class.

README.md says which end-to-end metric each layer should move, on which
workload.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import statistics

from tracer import END, ID, NAME, PARENT, START

# (metric prefix, module, attribute path); attribute paths with a dot are
# methods patched on their class
FUNCTIONS = (
    ("jordan.jordan_mul", "jordan", "jordan_mul"),
    ("jordan.char_coeffs", "jordan", "char_coeffs"),
    ("jordan.mult_operator", "jordan", "mult_operator"),
    ("jordan.quadratic_rep", "jordan", "quadratic_rep"),
    ("polarization.partial_polarize", "polarization", "partial_polarize"),
    ("polarization.covector_slot", "polarization", "covector_slot"),
    ("polarization.full_polarize", "polarization", "full_polarize"),
    ("reconstruction.pair_matrix", "reconstruction", "_pair_matrix"),
    ("reconstruction.tau", "reconstruction", "tau"),
    ("reconstruction.tau_covector", "reconstruction", "tau_covector"),
    ("reconstruction.structural_map", "reconstruction", "structural_map"),
    ("reconstruction.sharp", "reconstruction", "sharp"),
    ("reconstruction.reconstructed_product", "reconstruction",
     "reconstructed_product"),
    ("reconstruction.derivative_product_oracle", "reconstruction",
     "derivative_product_oracle"),
    ("reconstruction.orbit_map_derivative", "reconstruction",
     "orbit_map_derivative"),
    ("linalg.exact_rank", "linalg", "exact_rank"),
    ("linalg.exact_nullspace", "linalg", "exact_nullspace"),
    ("linalg.exact_solve", "linalg", "exact_solve"),
    ("linalg.exact_det", "linalg", "exact_det"),
    ("linalg.exact_inverse", "linalg", "exact_inverse"),
    ("linalg.LinearOperator.compose", "linalg", "LinearOperator.compose"),
    ("linalg.LinearOperator.apply", "linalg", "LinearOperator.apply"),
    ("composition.cd_mul", "composition", "cd_mul"),
    ("geometry.sample_rank_one", "geometry", "sample_rank_one"),
    ("geometry.tangent_frame", "geometry", "tangent_frame"),
    ("symmetry.GroupElementSample", "symmetry", "GroupElementSample.__init__"),
    ("symmetry.automorphism_trichotomy", "symmetry", "automorphism_trichotomy"),
    ("cubic.adjoint", "cubic", "adjoint"),
    ("cubic.bracketing_residual", "cubic", "bracketing_residual"),
    ("rng.stream_rng", "rng", "stream_rng"),
)

# about 34k calls per flagship-slice trial each: folded into counters
FORM_CALL = "polarization.form_call"
Q_EVAL = "jordan.q_eval"
# spans with their own bookkeeping
GRAM_BUILD = "reconstruction.gram_build"
TRIAL = "runner.trial"
CHECK = "runner.check."
EMIT = "report.emit_report"

TRACED = [name for name, _, _ in FUNCTIONS] + [Q_EVAL, FORM_CALL, GRAM_BUILD]

# the Gram build's own children, reported from a traced set-up
GRAM_CHILDREN = ("reconstruction.pair_matrix", "linalg.exact_inverse",
                 "linalg.exact_det")
SETUP_PARTS = (("setup.s", "setup.polarization.covector_slot.s",
                "setup.reconstruction.gram_build.s")
               + tuple(f"setup.reconstruction.gram_build.{child}.s"
                       for child in GRAM_CHILDREN))
# times every workload makes nonzero (the algebra suite and the frame's unit
# covector run everywhere)
ALWAYS_TIMED = frozenset(
    [f"{name}.self_s" for name in (
        "jordan.jordan_mul", Q_EVAL, FORM_CALL, "polarization.partial_polarize",
        "polarization.covector_slot", "composition.cd_mul", "rng.stream_rng")]
    + ["runner.suite.algebra.s", "runner.trial_ms.p50", "runner.trial_ms.tail",
       EMIT + ".s"]
    + [f"runner.check.{check_id}.ms_per_trial" for check_id in (
        "unit-law", "commutativity", "norm-multiplicativity")]
    + list(SETUP_PARTS))
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def jordal_modules():
    import jordal
    mods = [jordal]
    for info in pkgutil.iter_modules(jordal.__path__):
        mods.append(importlib.import_module(f"jordal.{info.name}"))
    return mods


def clear_caches(modules):
    """Empty every lru_cache, so frames and forms are built afresh."""
    for mod in modules:
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def install(tracer, spec):
    """Wrap every traced jordal function for a run on `spec`."""
    modules = jordal_modules()
    clear_caches(modules)
    by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}

    def patch_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    tracer.patch(mod, attr, wrapper)

    for name, mod_name, path in FUNCTIONS:
        mod = by_name[mod_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            tracer.patch(cls, meth, tracer.wrap(name, getattr(cls, meth)))
        else:
            original = getattr(mod, path)
            patch_everywhere(original, tracer.wrap(name, original))

    form_cls = by_name["polarization"].PolarizedForm
    tracer.patch(form_cls, "__call__",
                 tracer.wrap(FORM_CALL, form_cls.__call__, fold=True))
    # the frame's form is the cached norm_form(spec); its func runs only on
    # cache misses
    form = by_name["jordan"].norm_form(spec)
    tracer.patch(form, "func", tracer.wrap(Q_EVAL, form.func, fold=True))

    frame_cls = by_name["reconstruction"].NormFrame
    tracer.patch(frame_cls, "_build_gram",
                 tracer.wrap(GRAM_BUILD, frame_cls._build_gram,
                             when=lambda fr: fr._gram is None))

    runner = by_name["runner"]
    tracer.patch(runner, "_run_check",
                 tracer.wrap(lambda env, check, threads: CHECK + check.id,
                             runner._run_check))
    tracer.patch(runner, "_run_one_trial",
                 tracer.wrap(TRIAL, runner._run_one_trial))
    report = by_name["report"]
    patch_everywhere(report.emit_report, tracer.wrap(EMIT, report.emit_report))


def check_suites():
    """[(check id, suite)] in registry order."""
    from jordal.runner import CHECKS
    return [(c.id, c.suite) for c in CHECKS]


def metric_units():
    """{per-layer metric name: (unit, better)} in a fixed order."""
    from jordal.runner import SUITES
    units = {}
    for name in TRACED:
        units[name + ".calls"] = ("count", "lower")
        units[name + ".self_s"] = ("s", "lower")
    units["polarization.cache_hit_ratio"] = ("ratio", "higher")
    for suite in SUITES:
        units[f"runner.suite.{suite}.s"] = ("s", "lower")
    for check_id, _ in check_suites():
        units[f"runner.check.{check_id}.ms_per_trial"] = ("ms", "lower")
    units["runner.trial_ms.p50"] = ("ms", "lower")
    units["runner.trial_ms.tail"] = ("ms", "lower")
    units["runner.trial_ms.tail_pct"] = ("%", "higher")
    units["runner.trial_ms.samples"] = ("count", "higher")
    units[EMIT + ".s"] = ("s", "lower")
    units["report.bytes"] = ("bytes", "lower")
    units["trace.overhead_ratio"] = ("ratio", "lower")
    for name in SETUP_PARTS:
        units[name] = ("s", "lower")
    return units


def declared_metrics():
    """The per-layer metrics BENCHMARK.json lists: {name: (unit, better)}.

    Counts and ratios are all listed. Of the times, only those that every
    workload makes nonzero are listed: a function a workload never calls
    reads 0 s on every run of it. All metrics are printed either way.
    """
    return {name: ub for name, ub in metric_units().items()
            if ub[0] not in ("s", "ms") or name in ALWAYS_TIMED}


def tail_percentile(values):
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def nearest_rank(sorted_values, pct):
    if not sorted_values:
        return 0.0
    idx = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


def inclusive_s(tracer, name, parents=None):
    """Summed duration of kept spans called `name` (under `parents` ids)."""
    return sum((rec[END] - rec[START] for rec in tracer.spans
                if rec[NAME] == name
                and (parents is None or rec[PARENT] in parents)), 0.0)


def setup_metrics(tracer, wall_s):
    """Split of a traced frame(spec) build plus Gram data, as setup_s times."""
    gram_ids = {rec[ID] for rec in tracer.spans if rec[NAME] == GRAM_BUILD}
    out = {"setup.s": wall_s,
           "setup.polarization.covector_slot.s":
               inclusive_s(tracer, "polarization.covector_slot"),
           "setup.reconstruction.gram_build.s": inclusive_s(tracer, GRAM_BUILD)}
    for child in GRAM_CHILDREN:
        out[f"setup.reconstruction.gram_build.{child}.s"] = inclusive_s(
            tracer, child, gram_ids)
    return out


def metrics(tracer, trials, traced_wall_s, untraced_verify_s, report_bytes):
    """Every per-layer metric of a finished traced verification, by name."""
    stats = tracer.stats()
    out = {}
    for name in TRACED:
        calls, self_s, _ = stats[name]
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    form_calls = stats[FORM_CALL][0]
    out["polarization.cache_hit_ratio"] = (
        1 - stats[Q_EVAL][0] / form_calls if form_calls else 0.0)

    from jordal.runner import SUITES
    suite_s = dict.fromkeys(SUITES, 0.0)
    check_ms = {}
    for check_id, suite in check_suites():
        seconds = stats[CHECK + check_id][2]
        suite_s[suite] += seconds
        check_ms[check_id] = 1000 * seconds / trials
    for suite, seconds in suite_s.items():
        out[f"runner.suite.{suite}.s"] = seconds
    for check_id, ms in check_ms.items():
        out[f"runner.check.{check_id}.ms_per_trial"] = ms

    trial_ms = sorted(1000 * (rec[END] - rec[START]) for rec in tracer.spans
                      if rec[NAME] == TRIAL)
    pct = tail_percentile(trial_ms)
    out["runner.trial_ms.p50"] = statistics.median(trial_ms) if trial_ms else 0.0
    out["runner.trial_ms.tail"] = nearest_rank(trial_ms, pct)
    out["runner.trial_ms.tail_pct"] = pct
    out["runner.trial_ms.samples"] = len(trial_ms)
    out[EMIT + ".s"] = stats[EMIT][2]
    out["report.bytes"] = report_bytes
    out["trace.overhead_ratio"] = traced_wall_s / untraced_verify_s
    return out
