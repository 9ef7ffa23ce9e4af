"""ASE: the analysis and synthesis engine (Section V).

Synthesis is the dual of verification: given the framework specification
S_f, the bundle's app specifications S_a, and a vulnerability property P,
find a model M with M |= S_f ∧ S_a ∧ P.  Each satisfying model is a
concrete exploit scenario; Aluminum-style minimization keeps scenarios
principled (no spurious tuples), and superset blocking enumerates distinct
minimal scenarios.

Statistics mirror Table II: per-run model-to-CNF construction time and SAT
solving time are recorded separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.app_to_spec import BundleSpec
from repro.core.model import BundleModel
from repro.core.vulnerabilities import default_signatures
from repro.core.vulnerabilities.base import ExploitScenario, VulnerabilitySignature
from repro.obs import get_metrics, get_tracer
from repro.relational import ast as rast
from repro.relational.problem import RelationalProblem
from repro.relational.sigs import Module, Sig
from repro.sat import BudgetExhausted


@dataclass
class SynthesisStats:
    """Construction vs solving time, per signature and total (Table II).

    Solver counters (conflicts/decisions/propagations) are accumulated
    across every SAT call the signatures triggered, for the pipeline run
    report.  ``exhausted`` marks a run that hit its conflict or wall-clock
    budget and stopped early: the scenario list is a prefix of what an
    unbounded run would have found.

    The reuse counters quantify shared-encoding savings: ``translations``
    counts relational-to-CNF translations actually performed,
    ``translations_avoided`` the per-signature translations a shared run
    skipped, ``clauses_shared`` the already-present clauses each warm query
    reused instead of re-adding, and ``learned_carried`` the learned
    clauses alive in the solver when each subsequent signature started."""

    construction_seconds: float = 0.0
    solving_seconds: float = 0.0
    num_vars: int = 0
    num_clauses: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    solver_calls: int = 0
    translations: int = 0
    translations_avoided: int = 0
    clauses_shared: int = 0
    learned_carried: int = 0
    exhausted: bool = False
    per_signature: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def merge(self, other: "SynthesisStats") -> None:
        """Fold another stats block into this one (pipeline roll-up)."""
        self.construction_seconds += other.construction_seconds
        self.solving_seconds += other.solving_seconds
        self.num_vars += other.num_vars
        self.num_clauses += other.num_clauses
        self.conflicts += other.conflicts
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.solver_calls += other.solver_calls
        self.translations += other.translations
        self.translations_avoided += other.translations_avoided
        self.clauses_shared += other.clauses_shared
        self.learned_carried += other.learned_carried
        self.exhausted = self.exhausted or other.exhausted
        # Sum numeric fields per key: a signature appearing in both blocks
        # (repeated runs, re-merged stats) must accumulate, not clobber.
        for name, values in other.per_signature.items():
            mine = self.per_signature.setdefault(name, {})
            for key, value in values.items():
                mine[key] = mine.get(key, 0.0) + value

    def to_dict(self) -> Dict[str, object]:
        return {
            "construction_seconds": self.construction_seconds,
            "solving_seconds": self.solving_seconds,
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "solver_calls": self.solver_calls,
            "translations": self.translations,
            "translations_avoided": self.translations_avoided,
            "clauses_shared": self.clauses_shared,
            "learned_carried": self.learned_carried,
            "exhausted": self.exhausted,
            "per_signature": self.per_signature,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "SynthesisStats":
        return SynthesisStats(
            construction_seconds=data.get("construction_seconds", 0.0),
            solving_seconds=data.get("solving_seconds", 0.0),
            num_vars=data.get("num_vars", 0),
            num_clauses=data.get("num_clauses", 0),
            conflicts=data.get("conflicts", 0),
            decisions=data.get("decisions", 0),
            propagations=data.get("propagations", 0),
            solver_calls=data.get("solver_calls", 0),
            translations=data.get("translations", 0),
            translations_avoided=data.get("translations_avoided", 0),
            clauses_shared=data.get("clauses_shared", 0),
            learned_carried=data.get("learned_carried", 0),
            exhausted=bool(data.get("exhausted", False)),
            per_signature={
                name: dict(values)
                for name, values in dict(
                    data.get("per_signature", {})
                ).items()
            },
        )


@dataclass
class SynthesisResult:
    scenarios: List[ExploitScenario]
    stats: SynthesisStats

    def by_vulnerability(self) -> Dict[str, List[ExploitScenario]]:
        grouped: Dict[str, List[ExploitScenario]] = {}
        for scenario in self.scenarios:
            grouped.setdefault(scenario.vulnerability, []).append(scenario)
        return grouped

    def vulnerable_apps(self, vulnerability: Optional[str] = None) -> List[str]:
        apps = set()
        for scenario in self.scenarios:
            if vulnerability and scenario.vulnerability != vulnerability:
                continue
            if scenario.victim_app:
                apps.add(scenario.victim_app)
        return sorted(apps)


class AnalysisAndSynthesisEngine:
    """Runs every registered vulnerability signature against a bundle.

    ``conflict_budget`` caps the total CDCL conflicts each signature run
    may spend; ``time_budget_seconds`` caps its wall clock (checked
    between solver calls -- a single call is bounded by the conflict
    budget, not preempted).  When either budget runs out the run
    *degrades* instead of failing: the scenarios found so far are
    returned and ``stats.exhausted`` is set, so pathological bundles and
    SAT blow-ups yield partial results rather than sinking the pipeline.

    :meth:`run` translates the framework + bundle base once per bundle
    and runs every signature as an assumption-gated query against one
    persistent solver (:meth:`run_shared`).  ``shared_encoding=False``
    selects the reference path instead, which re-encodes per signature
    (:meth:`run_signature`); both produce identical scenarios
    (minimization is canonical), differing only in where the work
    happens.
    """

    def __init__(
        self,
        signatures: Optional[Sequence[VulnerabilitySignature]] = None,
        scenarios_per_signature: int = 8,
        minimal: bool = True,
        conflict_budget: Optional[int] = None,
        time_budget_seconds: Optional[float] = None,
        shared_encoding: bool = True,
    ) -> None:
        if scenarios_per_signature < 1:
            # Zero would skip enumeration and report every bundle clean.
            raise ValueError("scenarios_per_signature must be at least 1")
        self.signatures = (
            list(signatures) if signatures is not None else default_signatures()
        )
        self.scenarios_per_signature = scenarios_per_signature
        self.minimal = minimal
        self.conflict_budget = conflict_budget
        self.time_budget_seconds = time_budget_seconds
        self.shared_encoding = shared_encoding
        #: The shared-encoding :class:`RelationalProblem` of the most
        #: recent :meth:`run_shared` call, kept addressable so a resident
        #: caller (the ``repro serve`` session) can keep the solver --
        #: learned clauses, saved trail, phase state -- warm between
        #: requests and report its size as telemetry.  ``None`` until the
        #: first shared run; per-signature runs leave it untouched.
        self.last_problem: Optional[RelationalProblem] = None

    def run(self, bundle: BundleModel) -> SynthesisResult:
        if self.shared_encoding:
            return self.run_shared(bundle)
        stats = SynthesisStats()
        scenarios: List[ExploitScenario] = []
        for signature in self.signatures:
            result = self.run_signature(bundle, signature)
            scenarios.extend(result.scenarios)
            stats.merge(result.stats)
        return SynthesisResult(scenarios=scenarios, stats=stats)

    # ------------------------------------------------------------------
    # Shared-encoding mode
    # ------------------------------------------------------------------
    def run_shared(self, bundle: BundleModel) -> SynthesisResult:
        """Run every signature against one shared, selector-gated problem.

        The framework spec and bundle embedding are built and translated
        once; each signature's goal, signature-field multiplicities, and
        any facts it declares are attached under a fresh selector literal
        (:meth:`RelationalProblem.add_gated_formula`).  Anonymous-atom
        scopes are merged across signatures and their sig membership is
        left free in the bounds; under each signature's selector, its own
        scoped atoms are forced in and every tuple mentioning a foreign
        scoped atom is forced out -- restoring exactly the per-signature
        bounds.  Enumeration then runs per signature under assumptions
        ``[own selector, -other selectors]`` on the one warm solver, with
        diversity/superset blocking clauses gated by the active selector
        so they stay inert for the signatures that follow.
        """
        tracer = get_tracer()
        stats = SynthesisStats()
        scenarios: List[ExploitScenario] = []
        with tracer.span(
            "ase.bundle",
            apps=len(bundle.apps),
            signatures=len(self.signatures),
        ):
            start = time.perf_counter()
            with tracer.span("ase.construct", shared=True):
                spec = BundleSpec(bundle)
                problem, groups, selectors, base_clauses = self._build_shared(
                    spec
                )
            construction = time.perf_counter() - start
            solve_start = time.perf_counter()
            exhausted_any = False
            for index, ((signature, inst), selector) in enumerate(
                zip(groups, selectors)
            ):
                sig_start = time.perf_counter()
                deadline = (
                    sig_start + self.time_budget_seconds
                    if self.time_budget_seconds is not None
                    else None
                )
                if self.conflict_budget is not None:
                    # A fresh per-signature window over the cumulative cap.
                    problem.conflict_budget = (
                        problem.stats.conflicts + self.conflict_budget
                    )
                if index > 0:
                    stats.clauses_shared += base_clauses
                    stats.learned_carried += problem.num_learnt
                    # Phases saved from the previous signature's models
                    # bias this signature's witnesses toward them,
                    # inflating the minimization walk; polarity resets to
                    # prefer-false, learned clauses stay.
                    problem.reset_phases()
                # Deactivated selectors first, in reversed allocation
                # order, the active one last: consecutive signatures then
                # share an assumption prefix of still-deactivated
                # selectors, so a trail-saving backend keeps their
                # field-row clamp propagations seated across the switch
                # instead of replaying them.  Canonical minimization
                # makes the enumerated scenarios independent of
                # assumption order, so this is a pure solver-work
                # optimization.
                assumptions = [
                    -other
                    for other in reversed(selectors)
                    if other != selector
                ] + [selector]
                with tracer.span("ase.solve", signature=signature.name):
                    found, exhausted = self._enumerate(
                        problem,
                        inst,
                        deadline=deadline,
                        assumptions=assumptions,
                        gate=selector,
                    )
                scenarios.extend(inst.decode(instance) for instance in found)
                exhausted_any = exhausted_any or exhausted
                stats.per_signature[signature.name] = {
                    "construction_seconds": 0.0,
                    "solving_seconds": time.perf_counter() - sig_start,
                    "scenarios": float(len(found)),
                    "exhausted": float(exhausted),
                }
            solving = time.perf_counter() - solve_start
        stats.construction_seconds = construction
        stats.solving_seconds = solving
        stats.num_vars = problem.stats.num_vars
        stats.num_clauses = problem.stats.num_clauses
        stats.conflicts = problem.stats.conflicts
        stats.decisions = problem.stats.decisions
        stats.propagations = problem.stats.propagations
        stats.solver_calls = problem.stats.solver_calls
        stats.translations = 1
        stats.translations_avoided = max(0, len(groups) - 1)
        stats.exhausted = exhausted_any
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("ase.signature_runs").inc(len(groups))
            metrics.counter("ase.scenarios").inc(len(scenarios))
            metrics.counter("ase.translations").inc(stats.translations)
            metrics.counter("ase.translations_avoided").inc(
                stats.translations_avoided
            )
            metrics.counter("ase.clauses_shared").inc(stats.clauses_shared)
            metrics.counter("ase.learned_carried").inc(stats.learned_carried)
            if exhausted_any:
                metrics.counter("ase.budget_exhausted").inc()
            metrics.histogram("ase.num_vars").observe(stats.num_vars)
            metrics.histogram("ase.num_clauses").observe(stats.num_clauses)
            metrics.histogram("ase.construction_seconds").observe(construction)
            metrics.histogram("ase.solving_seconds").observe(solving)
        self.last_problem = problem
        return SynthesisResult(scenarios=scenarios, stats=stats)

    def _build_shared(self, spec: BundleSpec):
        """Instantiate every signature into one module and gate each one.

        Returns ``(problem, [(signature, instantiation)], selectors,
        base_clauses)`` where ``base_clauses`` is the clause count of the
        shared base translation (the clauses each warm query reuses).
        """
        module = spec.module
        merged_scopes: Dict[Sig, int] = {}
        groups: List[Tuple[VulnerabilitySignature, object]] = []
        own_fields: List[List] = []
        own_facts: List[List[rast.Formula]] = []
        for signature in self.signatures:
            fields_before = len(module.fields)
            facts_before = len(module._facts)
            inst = signature.instantiate(spec)
            own_fields.append(list(module.fields[fields_before:]))
            # Plugin-declared facts belong to the signature's gated group,
            # not the shared base: pull them back out of the module.
            own_facts.append(list(module._facts[facts_before:]))
            del module._facts[facts_before:]
            for sig, count in inst.extra_scopes.items():
                merged_scopes[sig] = max(merged_scopes.get(sig, 0), count)
            groups.append((signature, inst))
        exclude = [fld for fields in own_fields for fld in fields]
        bounds, base = module.build(
            extra=merged_scopes, float_anon=True, exclude_fields=exclude
        )
        # Allocation only: the base is asserted after the groups, and
        # skipped entirely when every group folds to FALSE (a trivially
        # vulnerability-free bundle costs what per-signature mode pays).
        problem = RelationalProblem(bounds, rast.TRUE_F)
        atom_home: Dict[object, Sig] = {}
        for sig in merged_scopes:
            for atom in module.anon_atoms_of(sig):
                atom_home[atom] = sig
        selectors: List[int] = []
        group_atoms: List[set] = []
        live: List[Tuple[int, List[Tuple]]] = []
        for (signature, inst), fields, facts in zip(
            groups, own_fields, own_facts
        ):
            parts: List[rast.Formula] = []
            for fld in fields:
                constraint = Module.field_constraint(fld)
                if constraint is not None:
                    parts.append(constraint)
            parts.extend(facts)
            parts.append(inst.goal)
            own_atoms: set = set()
            require: List[Tuple] = []
            for sig, count in inst.extra_scopes.items():
                for atom in module.anon_atoms_of(sig)[:count]:
                    own_atoms.add(atom)
                    require.append((sig.relation, (atom,)))
                    for ancestor in sig.ancestors():
                        require.append((ancestor.relation, (atom,)))
            # Rows touching another signature's anonymous atoms are
            # forced false whenever this group is the active one (owner
            # clamps + typing below), so the gated translation may fold
            # them to FALSE outright: the group then costs what a
            # standalone per-signature translation over its own universe
            # would.
            mask = [
                (relation, tup)
                for relation, tup in problem.primary_vars
                if any(
                    atom in atom_home and atom not in own_atoms
                    for atom in tup
                )
            ]
            selector = problem.add_gated_formula(
                rast.and_all(parts), mask=mask
            )
            selectors.append(selector)
            group_atoms.append(own_atoms)
            if selector in problem.dead_gates:
                continue  # (-selector) already forbids activating it
            # A group's field relations are referenced only by its own
            # gated translation (the base excludes them), so while the
            # group is switched off nothing constrains their rows.  Left
            # free, every warm query re-decides the whole deactivated
            # tail after the trail is unwound -- exactly the per-query
            # work the saved assumption prefix is meant to amortise.
            # Clamping each row false unless the owning selector is true
            # turns those decisions into propagations at the ``-sel``
            # assumption's own level, which the saved prefix keeps across
            # queries (and across active-signature switches, given the
            # canonical assumption order in :meth:`run_shared`).  Models
            # are unchanged: nothing can force a deactivated field row
            # true, so prefer-false minimization already pins them false.
            # Dead groups skip the clamp (via the ``continue`` above):
            # their gated translation folded away, so their rows are
            # referenced by nothing and stay false without help -- and a
            # trivially vulnerability-free bundle keeps its near-empty
            # CNF instead of paying thousands of clamp clauses.
            problem.add_absent_unless(
                selector,
                [
                    (relation, tup)
                    for relation, tup in problem.primary_vars
                    if relation in {fld.relation for fld in fields}
                ],
            )
            live.append((selector, require))
        # Anonymous-atom membership rows get the same owner-side clamp
        # as field rows: an atom exists only while a group scoping it is
        # active, so its sig-membership row is absent unless one of its
        # owning selectors is true.  Gating on the owners (rather than
        # forbidding foreign atoms under the *active* selector, as a
        # cold query would) anchors the membership rows -- and, through
        # the ungated typing clauses below, the whole cascade of
        # dependent base rows -- at the deactivated selectors' own
        # assumption levels.  Those levels sit below the active
        # selector's in the canonical assumption order, so re-seating
        # the active signature (after a blocking clause, or on a
        # signature switch) no longer replays the foreign-universe
        # propagation.
        # (Skipped entirely when every group folded away: with no base
        # and no live translation, nothing references the membership
        # rows and every query dies on its own dead gate.)
        if live:
            atom_owners: Dict[object, List[int]] = {}
            for selector, atoms in zip(selectors, group_atoms):
                for atom in atoms:
                    atom_owners.setdefault(atom, []).append(selector)
            for atom, sig in atom_home.items():
                problem.add_absent_unless(
                    atom_owners[atom], [(sig.relation, (atom,))]
                )
        base_clauses = 0
        if live:
            base_start = problem.stats.num_clauses
            problem.add_formula(base)
            base_clauses = problem.stats.num_clauses - base_start
            # Ungated typing: every base-referenced free row mentioning
            # an anonymous atom implies that atom's sig-membership row.
            # The owner clamps above only bind the handful of membership
            # rows; unit propagation zeroes every dependent row.  Rows
            # the base never mentions need no typing clause:
            # nothing can force them true (every group masks foreign
            # rows out of its own translation), so prefer-false
            # minimization pins them false unaided.
            referenced = problem.referenced_vars(start=base_start)
            dependents: Dict[Tuple, List[Tuple]] = {}
            for (relation, tup), var in problem.primary_vars.items():
                if var not in referenced:
                    continue
                for atom in tup:
                    sig = atom_home.get(atom)
                    if sig is not None:
                        member = (sig.relation, (atom,))
                        if (relation, tup) != member:
                            dependents.setdefault(member, []).append(
                                (relation, tup)
                            )
            for member, rows in dependents.items():
                problem.add_typing_tuples(member, rows)
            for selector, require in live:
                problem.add_gated_tuples(selector, require=require)
        return problem, groups, selectors, base_clauses

    def run_signature(
        self, bundle: BundleModel, signature: VulnerabilitySignature
    ) -> SynthesisResult:
        """Run a single signature against the bundle.

        The unit of work of the per-signature reference path:
        independent of every other signature (modules are mutated by
        instantiation, so each run builds a fresh embedding)."""
        tracer = get_tracer()
        stats = SynthesisStats()
        with tracer.span(
            "ase.signature",
            signature=signature.name,
            apps=len(bundle.apps),
        ):
            start = time.perf_counter()
            deadline = (
                start + self.time_budget_seconds
                if self.time_budget_seconds is not None
                else None
            )
            with tracer.span("ase.construct", signature=signature.name):
                spec = BundleSpec(bundle)
                instantiation = signature.instantiate(spec)
                problem = spec.module.solve_problem(
                    goal=instantiation.goal,
                    extra=instantiation.extra_scopes,
                )
            if self.conflict_budget is not None:
                problem.conflict_budget = self.conflict_budget
            construction = time.perf_counter() - start
            solve_start = time.perf_counter()
            with tracer.span("ase.solve", signature=signature.name):
                found, exhausted = self._enumerate(
                    problem, instantiation, deadline=deadline
                )
            solving = time.perf_counter() - solve_start
            scenarios = [instantiation.decode(instance) for instance in found]
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("ase.signature_runs").inc()
            metrics.counter("ase.scenarios").inc(len(found))
            metrics.counter("ase.translations").inc()
            if exhausted:
                metrics.counter("ase.budget_exhausted").inc()
            metrics.histogram("ase.num_vars").observe(problem.stats.num_vars)
            metrics.histogram("ase.num_clauses").observe(
                problem.stats.num_clauses
            )
            metrics.histogram("ase.construction_seconds").observe(construction)
            metrics.histogram("ase.solving_seconds").observe(solving)
        stats.construction_seconds = construction
        stats.solving_seconds = solving
        stats.num_vars = problem.stats.num_vars
        stats.num_clauses = problem.stats.num_clauses
        stats.conflicts = problem.stats.conflicts
        stats.decisions = problem.stats.decisions
        stats.propagations = problem.stats.propagations
        stats.solver_calls = problem.stats.solver_calls
        stats.translations = 1
        stats.exhausted = exhausted
        stats.per_signature[signature.name] = {
            "construction_seconds": construction,
            "solving_seconds": solving,
            "scenarios": float(len(found)),
            "exhausted": float(exhausted),
        }
        return SynthesisResult(scenarios=scenarios, stats=stats)

    def _enumerate(
        self,
        problem,
        instantiation,
        deadline: Optional[float] = None,
        assumptions: Sequence[int] = (),
        gate: Optional[int] = None,
    ) -> Tuple[List, bool]:
        """Diversity-driven enumeration: each scenario must re-bind at
        least one role field; without diversity fields, fall back to plain
        minimal/model enumeration.

        Returns ``(instances, exhausted)``: enumeration stops early --
        with whatever was found so far -- when the problem's conflict
        budget runs out (:class:`BudgetExhausted` from any solver call) or
        the wall-clock ``deadline`` passes between solver calls.
        """
        found: List = []

        def out_of_time() -> bool:
            return deadline is not None and time.perf_counter() >= deadline

        try:
            if not instantiation.diversity_fields:
                source = (
                    problem.minimal_solutions(
                        limit=self.scenarios_per_signature,
                        assumptions=assumptions,
                        gate=gate,
                    )
                    if self.minimal
                    else problem.solutions(
                        limit=self.scenarios_per_signature,
                        assumptions=assumptions,
                        gate=gate,
                    )
                )
                for instance in source:
                    found.append(instance)
                    if (
                        out_of_time()
                        and len(found) < self.scenarios_per_signature
                    ):
                        return found, True
                return found, False
            while len(found) < self.scenarios_per_signature:
                if out_of_time():
                    return found, True
                instance = (
                    problem.minimal_solution(assumptions=assumptions)
                    if self.minimal
                    else problem.solve(assumptions=assumptions)
                )
                if instance is None:
                    break
                found.append(instance)
                bindings = [
                    (fld.relation, tup)
                    for fld in instantiation.diversity_fields
                    for tup in instance.tuples(fld.relation)
                ]
                if not problem.block(bindings, gate=gate):
                    break
        except BudgetExhausted:
            return found, True
        return found, False
