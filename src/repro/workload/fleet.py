"""Fleet generation: synthetic Redshift customers and their query traces.

:class:`FleetGenerator` samples heterogeneous :class:`InstanceProfile`\\ s
(hardware, hidden speed, tables, workload mix) and unrolls each one into a
:class:`~repro.workload.trace.Trace` of executed queries.  The archetype
mixture is calibrated so fleet-level statistics reproduce paper Figure 1:
most queries repeat within 24 hours, ~13% of clusters have (almost) no
repetition, and ~40% of queries run in under 100 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallelism import pool_map
from repro.plans import featurize_plan

from .arrival import (
    SECONDS_PER_DAY,
    adhoc_arrivals,
    burst_arrivals,
    dashboard_arrivals,
    etl_arrivals,
    report_arrivals,
)
from .drift import AnalyzeSchedule, sample_template_retirements, sample_template_start_days
from .instance import HARDWARE_CLASSES, InstanceProfile, Table
from .latency import TrueCostModel
from .plangen import PlanGenerator, TemplateSpec
from .query import QueryKind, QueryRecord
from .scenario import InstanceScenario, ScenarioConfig
from .seeding import derive_seed
from .trace import Trace

__all__ = ["FleetConfig", "FleetGenerator", "TemplateRuntime"]


# (name, probability, kind weights) — mixture of customer archetypes.
# pure_adhoc at 0.13 reproduces "only 13% of clusters have no repeating
# queries" (Figure 1a); the adhoc-leaning mass puts ~40% of clusters above
# 50% daily-unique queries.
_ARCHETYPES = (
    # (name, probability, kind weights, base queries/day, adhoc rerun prob)
    (
        "dashboard_heavy",
        0.35,
        {
            QueryKind.DASHBOARD: 0.76,
            QueryKind.REPORT: 0.15,
            QueryKind.ADHOC: 0.08,
            QueryKind.ETL: 0.01,
        },
        1200.0,
        0.25,
    ),
    (
        "mixed",
        0.27,
        {
            QueryKind.DASHBOARD: 0.47,
            QueryKind.REPORT: 0.20,
            QueryKind.ADHOC: 0.30,
            QueryKind.ETL: 0.03,
        },
        700.0,
        0.2,
    ),
    (
        "adhoc_heavy",
        0.25,
        {
            QueryKind.DASHBOARD: 0.04,
            QueryKind.REPORT: 0.08,
            QueryKind.ADHOC: 0.86,
            QueryKind.ETL: 0.02,
        },
        350.0,
        0.1,
    ),
    (
        "pure_adhoc",
        0.13,
        {QueryKind.DASHBOARD: 0.0, QueryKind.REPORT: 0.0, QueryKind.ADHOC: 1.0, QueryKind.ETL: 0.0},
        200.0,
        0.0,
    ),
)


def _stochastic_round(rng: np.random.Generator, x: float) -> int:
    """Round so the expectation is preserved (0.3 -> 0 or 1, E=0.3)."""
    base = int(np.floor(x))
    return base + (1 if rng.random() < (x - base) else 0)


def _generate_trace_worker(args) -> "Trace":
    """Process-pool entrypoint: unroll one instance by index."""
    config, index, duration_days = args
    gen = FleetGenerator(config)
    return gen.generate_trace(gen.sample_instance(index), duration_days)


@dataclass
class FleetConfig:
    """Scale and randomness knobs of the synthetic fleet."""

    seed: int = 0
    #: global multiplier on per-instance query volume (downscale for tests)
    volume_scale: float = 1.0
    n_tables_min: int = 8
    n_tables_max: int = 24
    #: fraction of templates that appear mid-trace (workload drift)
    late_template_fraction: float = 0.15
    #: probability a table is an external S3 table
    s3_table_probability: float = 0.15
    #: lognormal sigma of the hidden per-instance speed factor
    latent_speed_sigma: float = 0.35
    cost_model: TrueCostModel = field(default_factory=TrueCostModel)
    #: optional stress-scenario mutations (see :mod:`repro.workload.scenario`);
    #: ``None`` (or an all-off config) generates the baseline workload
    scenario: Optional[ScenarioConfig] = None


class TemplateRuntime:
    """A template plus its variant and materialization caches.

    Materialized plans are cached per ``(variant, statistics epoch)`` so
    repeated executions share one plan object and one feature vector —
    the property the exec-time cache keys on.
    """

    def __init__(
        self,
        template_id: int,
        kind: str,
        base_spec: TemplateSpec,
        generator: PlanGenerator,
        tables: List[Table],
        seed: int,
        start_day: float = 0.0,
        end_day: float = float("inf"),
    ):
        self.template_id = template_id
        self.kind = kind
        self.base_spec = base_spec
        self.generator = generator
        self.tables = tables
        self.seed = seed
        self.start_day = start_day
        #: retirement day (template churn); ``inf`` = never retired
        self.end_day = end_day
        #: arrival-process parameters, set by the fleet generator
        self.arrival_params: Dict[str, float] = {}
        self._variants: Dict[int, TemplateSpec] = {0: base_spec}
        self._materialized: Dict[Tuple[int, int], tuple] = {}

    def variant_spec(self, variant_id: int) -> TemplateSpec:
        spec = self._variants.get(variant_id)
        if spec is None:
            rng = np.random.default_rng(derive_seed(self.seed, self.template_id, variant_id))
            spec = self.generator.perturb_variant(rng, self.base_spec)
            self._variants[variant_id] = spec
        return spec

    def materialize(self, variant_id: int, epoch: int, stat_rows: Dict[int, float]):
        """``(plan, features, base_work)`` for a variant in an epoch."""
        key = (variant_id, epoch)
        entry = self._materialized.get(key)
        if entry is None:
            spec = self.variant_spec(variant_id)
            mat = self.generator.materialize(spec, self.tables, stat_rows, growth_factor=1.0)
            features = featurize_plan(mat.plan)
            entry = (mat.plan, features, mat.base_work)
            self._materialized[key] = entry
        return entry


class FleetGenerator:
    """Samples instances and generates their query traces."""

    def __init__(self, config: Optional[FleetConfig] = None):
        self.config = config or FleetConfig()
        self.plan_generator = PlanGenerator(self.config.cost_model)

    # ------------------------------------------------------------------
    # instance sampling
    # ------------------------------------------------------------------
    def sample_instance(self, index: int) -> InstanceProfile:
        cfg = self.config
        rng = np.random.default_rng(derive_seed(cfg.seed, "instance", index))

        probs = np.array([a[1] for a in _ARCHETYPES])
        archetype = _ARCHETYPES[int(rng.choice(len(_ARCHETYPES), p=probs / probs.sum()))]
        _, __, kind_weights, base_qpd, rerun_prob = archetype

        hw_name = str(
            rng.choice(
                list(HARDWARE_CLASSES),
                p=[0.15, 0.35, 0.35, 0.15],
            )
        )
        hardware = HARDWARE_CLASSES[hw_name]
        node_caps = {"dc2.large": 9, "ra3.xlplus": 9, "ra3.4xlarge": 17, "ra3.16xlarge": 33}
        n_nodes = int(rng.integers(2, node_caps[hw_name]))

        n_tables = int(rng.integers(cfg.n_tables_min, cfg.n_tables_max + 1))
        # Customers size clusters to their data: table volumes scale with
        # the cluster's raw capacity, which keeps per-archetype exec-times
        # in comparable ranges across the fleet (as in the paper's Fig 1b).
        raw_speed = hardware.unit_speed * n_nodes**0.8
        size_shift = np.log10(max(raw_speed / 12.0, 0.05))
        tables = []
        for t in range(n_tables):
            if rng.random() < 0.6:  # dimension-ish table
                rows = float(10 ** (rng.uniform(4.0, 6.5) + 0.5 * size_shift))
            else:  # fact table
                rows = float(10 ** (rng.uniform(6.8, 9.0) + size_shift))
            s3 = rng.random() < cfg.s3_table_probability
            tables.append(
                Table(
                    name=f"t{t}",
                    base_rows=rows,
                    s3_format=str(rng.choice(["parquet", "text", "opencsv"]))
                    if s3
                    else "local",
                    growth_per_day=float(rng.exponential(0.01))
                    if rng.random() < 0.7
                    else 0.0,
                )
            )

        qpd = float(base_qpd * rng.lognormal(0.0, 0.4) * cfg.volume_scale)
        return InstanceProfile(
            instance_id=f"inst-{index:04d}",
            hardware=hardware,
            n_nodes=n_nodes,
            latent_speed=float(rng.lognormal(0.0, cfg.latent_speed_sigma)),
            load_sigma=float(rng.uniform(0.12, 0.45)),
            tables=tables,
            kind_weights=dict(kind_weights),
            queries_per_day=qpd,
            seed=int(rng.integers(0, 2**31 - 1)),
            analyze_interval_days=float(rng.uniform(1.5, 7.0)),
            mean_concurrency=float(rng.uniform(1.0, 5.0)),
            adhoc_rerun_probability=rerun_prob,
        )

    # ------------------------------------------------------------------
    # template construction
    # ------------------------------------------------------------------
    def _build_templates(
        self, instance: InstanceProfile, duration_days: float, rng
    ) -> List[TemplateRuntime]:
        """Create the instance's templates with their arrival parameters.

        Template counts per archetype are derived from the target volume:
        dashboards fire ~100x/day each, reports ~2.5x/day, ETL ~2x/day;
        ad-hoc arrivals spread over a small number of "analyst" families.
        Stochastic rounding keeps low-weight kinds at their expected share
        instead of forcing at least one high-volume template.
        """
        cfg = self.config
        qpd = instance.queries_per_day
        w = instance.kind_weights
        counts = {
            QueryKind.DASHBOARD: _stochastic_round(
                rng, qpd * w[QueryKind.DASHBOARD] / 100.0
            ),
            QueryKind.REPORT: _stochastic_round(
                rng, qpd * w[QueryKind.REPORT] / 2.5
            ),
            QueryKind.ADHOC: (
                max(1, round(np.sqrt(qpd * w[QueryKind.ADHOC]) / 1.5))
                if w[QueryKind.ADHOC] > 0
                else 0
            ),
            QueryKind.ETL: _stochastic_round(rng, qpd * w[QueryKind.ETL] / 2.0),
        }
        templates: List[TemplateRuntime] = []
        tid = 0
        for kind, n in counts.items():
            if n <= 0:
                continue
            starts = sample_template_start_days(rng, n, duration_days, cfg.late_template_fraction)
            for k in range(n):
                spec = self.plan_generator.build_template(rng, kind, instance.tables)
                template = TemplateRuntime(
                    template_id=tid,
                    kind=kind,
                    base_spec=spec,
                    generator=self.plan_generator,
                    tables=instance.tables,
                    seed=instance.seed,
                    start_day=float(starts[k]),
                )
                if kind == QueryKind.DASHBOARD:
                    template.arrival_params = {
                        "period_s": float(
                            10 ** rng.uniform(np.log10(300), np.log10(3600))
                        ),
                        "n_variants": int(rng.choice([1, 1, 1, 2, 3, 4])),
                    }
                elif kind == QueryKind.REPORT:
                    template.arrival_params = {"runs_per_day": float(rng.uniform(1.0, 4.0))}
                elif kind == QueryKind.ADHOC:
                    template.arrival_params = {
                        "mean_per_day": qpd
                        * w[QueryKind.ADHOC]
                        / counts[QueryKind.ADHOC],
                        "rerun_probability": instance.adhoc_rerun_probability,
                    }
                else:
                    template.arrival_params = {"runs_per_day": float(rng.uniform(1.0, 3.0))}
                templates.append(template)
                tid += 1
        return templates

    def _template_arrivals(
        self, template: TemplateRuntime, instance: InstanceProfile, duration_days: float, rng
    ):
        t_start = template.start_day * SECONDS_PER_DAY
        t_end = min(duration_days, template.end_day) * SECONDS_PER_DAY
        if t_start >= t_end:
            return []
        params = template.arrival_params
        if template.kind == QueryKind.DASHBOARD:
            return dashboard_arrivals(rng, t_start, t_end, params["period_s"], params["n_variants"])
        if template.kind == QueryKind.REPORT:
            return report_arrivals(rng, t_start, t_end, runs_per_day=params["runs_per_day"])
        if template.kind == QueryKind.ADHOC:
            return adhoc_arrivals(
                rng,
                t_start,
                t_end,
                params["mean_per_day"],
                rerun_probability=params["rerun_probability"],
            )
        return etl_arrivals(rng, t_start, t_end, runs_per_day=params["runs_per_day"])

    # ------------------------------------------------------------------
    # scenario mutations (see repro.workload.scenario for the contract)
    # ------------------------------------------------------------------
    def _apply_template_churn(
        self,
        templates: List[TemplateRuntime],
        scenario: InstanceScenario,
        instance: InstanceProfile,
        duration_days: float,
    ) -> List[TemplateRuntime]:
        """Retire churnable templates and append their replacements.

        Dashboards and reports have stable identities that teams iterate
        on; ad-hoc families and ETL pipelines don't churn.  A replacement
        keeps the retiree's cadence (arrival params) but is a brand-new
        spec with a fresh template id, so its queries cold-miss every
        predictor stage.  Replacements don't churn again — one
        generation per trace keeps the transform simple and pure.
        """
        rng = scenario.rng("churn")
        churnable = [t for t in templates if t.kind in (QueryKind.DASHBOARD, QueryKind.REPORT)]
        retire_days = sample_template_retirements(
            rng,
            [t.start_day for t in churnable],
            duration_days,
            scenario.config.churn_rate_per_week,
        )
        out = list(templates)
        next_tid = max((t.template_id for t in templates), default=-1) + 1
        for template, retire_day in zip(churnable, retire_days):
            if not np.isfinite(retire_day):
                continue
            template.end_day = float(retire_day)
            replacement = TemplateRuntime(
                template_id=next_tid,
                kind=template.kind,
                base_spec=self.plan_generator.build_template(rng, template.kind, instance.tables),
                generator=self.plan_generator,
                tables=instance.tables,
                seed=instance.seed,
                start_day=float(retire_day),
            )
            replacement.arrival_params = dict(template.arrival_params)
            out.append(replacement)
            next_tid += 1
        return out

    #: burst ad-hoc variants start here so they never collide with the
    #: template's own monotonically increasing variant ids
    _BURST_ADHOC_VARIANT_BASE = 1_000_000

    def _template_burst_arrivals(
        self,
        template: TemplateRuntime,
        scenario: InstanceScenario,
        duration_days: float,
    ):
        """Extra flash-crowd arrivals for one template.

        Each template draws from its own ``(instance, "burst", template
        id)`` stream; storm windows are instance-wide and intersected
        with the template's active span.  The surge multiplies the
        template's steady-state rate: dashboards re-fire their variant
        pool (repeat storm), ad-hoc families spray fresh variants
        (cold-start storm), date-parameterized kinds re-run the day's
        variant.
        """
        t_lo = template.start_day * SECONDS_PER_DAY
        t_hi = min(duration_days, template.end_day) * SECONDS_PER_DAY
        windows = [
            (max(w_start, t_lo), min(w_end, t_hi))
            for w_start, w_end in scenario.burst_windows
            if max(w_start, t_lo) < min(w_end, t_hi)
        ]
        if not windows:
            return []
        params = template.arrival_params
        extra = scenario.config.burst_multiplier - 1.0
        if template.kind == QueryKind.DASHBOARD:
            rate = extra * SECONDS_PER_DAY / params["period_s"]
            mode, n_variants = "pool", int(params["n_variants"])
        elif template.kind == QueryKind.ADHOC:
            rate = extra * params["mean_per_day"]
            mode, n_variants = "fresh", 1
        else:  # REPORT / ETL: date-parameterized re-runs
            rate = extra * params["runs_per_day"]
            mode, n_variants = "day", 1
        return burst_arrivals(
            scenario.rng("burst", template.template_id),
            windows,
            rate,
            variant_mode=mode,
            n_variants=n_variants,
            next_variant_start=self._BURST_ADHOC_VARIANT_BASE,
        )

    # ------------------------------------------------------------------
    # trace generation
    # ------------------------------------------------------------------
    def generate_trace(self, instance: InstanceProfile, duration_days: float) -> Trace:
        """Unroll one instance into a time-ordered list of executed queries."""
        if duration_days <= 0:
            raise ValueError("duration_days must be positive")
        cfg = self.config
        rng = np.random.default_rng(derive_seed(cfg.seed, "trace", instance.seed))
        templates = self._build_templates(instance, duration_days, rng)
        scenario = InstanceScenario.realize(cfg.scenario, instance.seed, duration_days)
        if scenario is not None and scenario.config.churn_rate_per_week > 0:
            templates = self._apply_template_churn(templates, scenario, instance, duration_days)

        arrivals = []  # (time, template, variant)
        for template in templates:
            for t, variant in self._template_arrivals(template, instance, duration_days, rng):
                arrivals.append((t, template, variant))
            if scenario is not None and scenario.burst_windows:
                for t, variant in self._template_burst_arrivals(template, scenario, duration_days):
                    arrivals.append((t, template, variant))
        arrivals.sort(key=lambda x: x[0])
        if scenario is not None:
            arrivals = scenario.filter_arrivals(arrivals)

        schedule = AnalyzeSchedule(
            duration_days,
            instance.analyze_interval_days,
            rng,
            outages=scenario.analyze_outages if scenario is not None else None,
        )
        cost_model = cfg.cost_model

        records: List[QueryRecord] = []
        stat_rows_by_epoch: Dict[int, Dict[int, float]] = {}
        for qid, (t, template, variant) in enumerate(arrivals):
            epoch = schedule.epoch_at(t)
            stat_rows = stat_rows_by_epoch.get(epoch)
            if stat_rows is None:
                stat_rows = {
                    i: tab.base_rows
                    * ((1.0 + tab.growth_per_day) ** schedule.epoch_start_day(epoch))
                    for i, tab in enumerate(instance.tables)
                }
                stat_rows_by_epoch[epoch] = stat_rows
            plan, features, base_work = template.materialize(variant, epoch, stat_rows)
            day = t / SECONDS_PER_DAY
            work = base_work * instance.growth_factor(day)
            concurrency = int(rng.poisson(instance.mean_concurrency))
            resize_factor = scenario.speed_factor(day) if scenario is not None else 1.0
            exec_time = cost_model.exec_time(
                work,
                instance.effective_speed * resize_factor,
                instance.memory_gb * resize_factor,
                rng,
                instance.load_sigma,
                concurrency,
            )
            records.append(
                QueryRecord(
                    query_id=qid,
                    instance_id=instance.instance_id,
                    template_id=template.template_id,
                    variant_id=variant,
                    plan_epoch=epoch,
                    arrival_time=t,
                    plan=plan,
                    exec_time=exec_time,
                    kind=template.kind,
                ).with_features(features)
            )
        return Trace(instance=instance, records=records, duration_days=duration_days)

    def generate_fleet_traces(
        self,
        n_instances: int,
        duration_days: float,
        start_index: int = 0,
        n_jobs: int = 1,
    ) -> List[Trace]:
        """Traces for instances ``start_index .. start_index+n-1``.

        With ``n_jobs != 1`` the instances are unrolled in a process
        pool (``<=0`` means all cores).  Every instance's randomness is
        derived from ``(config seed, instance index)`` alone, so the
        traces are identical for any ``n_jobs``.
        """
        indices = range(start_index, start_index + n_instances)
        tasks = [(self.config, i, duration_days) for i in indices]
        return pool_map(_generate_trace_worker, tasks, n_jobs)
