"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

from anticopypaster.cli import run_command
from anticopypaster.clones import find_duplicates
from anticopypaster.decision import evaluate_gate
from anticopypaster.extraction import (
    analyze_extractability,
    apply_extraction,
    plan_extraction,
    verify_by_inlining,
)
from anticopypaster.metrics import (
    KEYWORD_CATALOGUE,
    Submetric,
    compute_vector,
    percentile_threshold,
)
from anticopypaster.scenario import load_scenario, run_scenario, serialize_log
from anticopypaster.settings import SubmetricFlags
from anticopypaster.source_model import index_file, validate_fragment
from anticopypaster.workspace import open_project

from helpers import CORPUS_DIR, FIXTURES_DIR, GOLDEN_DIR, SCENARIOS_DIR
from test_clones import brute_force_duplicates


def _corpus_cases() -> list[dict]:
    cases = []
    for case_dir in sorted(CORPUS_DIR.iterdir()):
        if case_dir.is_dir():
            meta = json.loads((case_dir / "case.json").read_text(encoding="utf-8"))
            meta["dir"] = case_dir
            cases.append(meta)
    return cases


def test_criterion_1_reproduction_corpus(capsys):
    """10 bundled cases: 7 exact trigger, 3 near do not, in under 5 seconds."""
    started = time.perf_counter()
    cases = _corpus_cases()
    assert len(cases) == 10
    exact_hits = 0
    near_misses = 0
    for meta in cases:
        case_dir: Path = meta["dir"]
        argv = [
            "check",
            str(case_dir / "project"),
            "--fragment",
            str(case_dir / meta["fragment"]),
            "--at",
            meta["at"],
            "--config",
            str(case_dir / "config.json"),
            "--json",
        ]
        code = run_command(argv)
        payload = json.loads(capsys.readouterr().out)
        if meta["kind"] == "exact":
            assert code == 0 and payload["triggered"], case_dir.name
            exact_hits += 1
        else:
            assert code == 1 and not payload["triggered"], case_dir.name
            near_misses += 1
            # The near copy never becomes an extraction site: re-scan and
            # confirm the paste host is the only exact match.
            session = open_project(case_dir / "project", case_dir / "config.json")
            fragment = validate_fragment((case_dir / meta["fragment"]).read_text())
            file_path, line = meta["at"].rsplit(":", 1)
            matches = find_duplicates(
                fragment, session.methods, session.settings.near_match_threshold
            )
            exact = [m for m in matches if m.kind == "exact"]
            host = session.method_at(file_path, int(line))
            assert [m.method_id for m in exact] == [host.id]
            if meta.get("expectNearCounted"):
                assert any(m.kind == "near" for m in matches)
                assert payload["gate"]["duplicateMethodCount"] >= 2
    elapsed = time.perf_counter() - started
    assert exact_hits == 7 and near_misses == 3
    assert elapsed < 5.0
    print(f"PASS criterion 1: 7/7 exact triggered, 3/3 near rejected in {elapsed:.2f}s")


def test_criterion_2_percentile_oracle():
    """Nearest-rank thresholds match a brute-force oracle on 1000 samples."""
    rng = random.Random(20240601)
    started = time.perf_counter()
    checked = 0
    for _ in range(1000):
        size = rng.randint(1, 500)
        sample = tuple(sorted(rng.choice([0, 1, 2, 3, 5, 8, 13, 21.5]) for _ in range(size)))
        sensitivity = rng.randint(1, 100)
        expected = sample[ceil(Fraction(sensitivity * size, 100)) - 1]
        assert percentile_threshold(sample, sensitivity) == expected
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 1000
    assert elapsed < 1.0
    print(f"PASS criterion 2: 1000/1000 percentile samples exact in {elapsed:.2f}s")


def _synthetic_project(n_methods: int) -> tuple[list, str]:
    rng = random.Random(99)
    bodies = []
    for i in range(n_methods):
        flavor = i % 5
        if flavor == 0:
            body = f"        int v{i} = {i};\n        total += v{i};"
        elif flavor == 1:
            body = (
                f"        int n = 0;\n        for (int x : xs) {{\n"
                f"            if (x > {rng.randint(0, 3)}) {{\n"
                f"                n += x;\n            }}\n        }}\n"
                f"        total = n;"
            )
        elif flavor == 2:
            body = "        int n = 0;\n        for (int x : xs) {\n            if (x > 0) {\n                n += x;\n            }\n        }\n        use(n);"
        elif flavor == 3:
            body = f"        if (total > {i}) {{\n            total--;\n        }}"
        else:
            body = f"        use({i});"
        bodies.append(f"    void m{i:02d}(int[] xs) {{\n{body}\n    }}")
    source = "class Synth {\n    private int total;\n\n" + "\n\n".join(bodies) + "\n\n    void use(int v) {\n    }\n}\n"
    methods, _ = index_file(source, "Synth.java")
    return methods, source


def test_criterion_3_clone_detector_oracle():
    """find_duplicates equals the brute-force oracle on every small fixture."""
    fixtures = 0
    for meta in _corpus_cases():
        case_dir = meta["dir"]
        session = open_project(case_dir / "project", case_dir / "config.json")
        assert len(session.methods) <= 50
        fragment = validate_fragment((case_dir / meta["fragment"]).read_text())
        for theta in (0.5, 0.8, 0.95):
            assert find_duplicates(fragment, session.methods, theta) == \
                brute_force_duplicates(fragment, session.methods, theta)
        fixtures += 1
    methods, _ = _synthetic_project(49)
    assert len(methods) == 50  # 49 generated plus the use() helper
    probe = validate_fragment(
        "int n = 0;\nfor (int x : xs) {\n    if (x > 0) {\n        n += x;\n    }\n}"
    )
    for theta in (0.3, 0.8, 1.0):
        assert find_duplicates(probe, methods, theta) == brute_force_duplicates(
            probe, methods, theta
        )
    fixtures += 1
    print(f"PASS criterion 3: oracle equality on {fixtures} fixtures")


def test_criterion_4_metric_fixtures():
    """Hand-computed metric values: totals exact, densities to 1e-9."""
    owner_source = (
        "class Owner {\n"
        "    private int sum;\n\n"
        "    void host(int x) {\n"
        "        sum += x;\n"
        "    }\n"
        "}\n"
    )
    methods, classes = index_file(owner_source, "Owner.java")
    owner = classes[0]

    def vector(text: str):
        return compute_vector(validate_fragment(text), methods[0], owner, KEYWORD_CATALOGUE)

    guarded = vector("if (x > 0) {\n    sum += x;\n}")
    total, density = guarded[Submetric.KEYWORD_TOTAL], guarded[Submetric.KEYWORD_DENSITY]
    assert total == 1 and abs(density - 1 / 3) < 1e-9

    count = guarded[Submetric.COUPLING_TOTAL_TOTAL]
    c_density = guarded[Submetric.COUPLING_DENSITY_TOTAL]
    assert count == 1 and abs(c_density - 1 / 3) < 1e-9
    assert vector("int sum = 0;\nsum++;")[Submetric.COUPLING_TOTAL_FIELD] == 0

    area = guarded[Submetric.COMPLEXITY_TOTAL_AREA]
    area_density = guarded[Submetric.COMPLEXITY_AREA_DENSITY]
    assert area == 4 and abs(area_density - 4 / 3) < 1e-9

    segment_size = (
        Submetric.SIZE_LINES_SEGMENT,
        Submetric.SIZE_SYMBOLS_SEGMENT,
        Submetric.SIZE_SYMBOL_DENSITY_SEGMENT,
    )
    lines, symbols, s_density = (guarded[m] for m in segment_size)
    assert (lines, symbols) == (3, 16) and abs(s_density - 16 / 3) < 1e-9
    assert tuple(vector("x = 1;")[m] for m in segment_size) == (1, 4, 4.0)
    print("PASS criterion 4: keyword/coupling/complexity/size hand values exact")


def test_criterion_5_gate_monotonicity():
    """500 randomized instances per property, zero violations."""
    categories = ("keyword", "coupling", "complexity", "size")

    def random_instance(rng):
        vector = {m: rng.uniform(0, 20) for m in Submetric}
        samples = {
            m: tuple(sorted(rng.uniform(0, 20) for _ in range(rng.randint(1, 40))))
            for m in Submetric
        }
        flags = {}
        for m in Submetric:
            enabled = rng.random() < 0.6
            flags[m] = SubmetricFlags(enabled, enabled and rng.random() < 0.3)
        sens = {c: rng.randint(1, 100) for c in categories}
        return vector, samples, flags, sens

    def passes(vector, samples, flags, sens) -> bool:
        thresholds = {
            m: percentile_threshold(samples[m], sens[m.category])
            for m in Submetric
            if flags[m].enabled
        }
        return evaluate_gate(vector, thresholds, flags).metrics_passed

    rng = random.Random(777)
    sensitivity_flips = 0
    required_flips = 0
    for _ in range(500):
        vector, samples, flags, sens = random_instance(rng)
        before = passes(vector, samples, flags, sens)
        category = rng.choice(categories)
        raised = dict(sens)
        raised[category] = rng.randint(sens[category], 100)
        if not before and passes(vector, samples, flags, raised):
            sensitivity_flips += 1
        optional = [m for m in Submetric if flags[m].enabled and not flags[m].required]
        if optional:
            stricter = dict(flags)
            stricter[rng.choice(optional)] = SubmetricFlags(True, True)
            if not before and passes(vector, samples, stricter, sens):
                required_flips += 1
    assert sensitivity_flips == 0
    assert required_flips == 0
    print("PASS criterion 5: 500 randomized instances, zero monotonicity violations")


def test_criterion_6_delay_semantics_goldens():
    """Bundled scenarios reproduce their golden logs byte for byte."""
    expectations = {
        "before_due": [],
        "due": ["recommendation@10"],
        "edited": ["drop:Edited@10"],
        "repaste": ["recommendation@13"],
    }
    for name, shape in expectations.items():
        log = run_scenario(load_scenario(SCENARIOS_DIR / f"{name}.json"))
        golden = (GOLDEN_DIR / f"{name}.log.json").read_text(encoding="utf-8")
        assert serialize_log(log) == golden, name
        rendered = [
            f"{e['type']}@{e['t']}" if e["type"] == "recommendation"
            else f"{e['type']}:{e['reason']}@{e['t']}"
            for e in log
        ]
        assert rendered == shape, name
    # Defaults come from an empty config object: delay 10, two methods.
    due_log = run_scenario(load_scenario(SCENARIOS_DIR / "due.json"))
    assert due_log[0]["t"] == due_log[0]["pastedAt"] + 10
    assert due_log[0]["gate"]["duplicateMethodCount"] >= 2
    empty_config = json.loads((SCENARIOS_DIR / "configs" / "empty.json").read_text())
    assert empty_config == {}
    print("PASS criterion 6: delay goldens byte-identical; defaults 10s / 2 methods")


def test_criterion_7_extraction_round_trip():
    """Inlining verifies 100% of plans; golden diff exact; +1 method."""
    plans = 0
    verified = 0
    targets = [
        (FIXTURES_DIR / "extract_demo" / "project",
         FIXTURES_DIR / "extract_demo" / "fragment.java", "Pipeline.java:5", None)
    ]
    for meta in _corpus_cases():
        if meta["kind"] == "exact":
            case_dir = meta["dir"]
            targets.append(
                (case_dir / "project", case_dir / meta["fragment"], meta["at"],
                 case_dir / "config.json")
            )
    for root, fragment_path, at, config in targets:
        session = open_project(root, config)
        fragment = validate_fragment(fragment_path.read_text(encoding="utf-8"))
        file_path, line = at.rsplit(":", 1)
        host = session.method_at(file_path, int(line))
        matches = find_duplicates(
            fragment, session.methods, session.settings.near_match_threshold
        )
        summary = analyze_extractability(fragment, host, host.owner)
        plan = plan_extraction(
            summary, "rolledUp", fragment, host, host.owner, matches,
            session.methods_by_id,
        )
        result = apply_extraction(plan, session.files)
        verdict = verify_by_inlining(plan, session.files, result.sources, result)
        plans += 1
        assert verdict.all_equivalent, root
        verified += 1
        before_count = len(session.methods)
        after_count = 0
        for rel, text in result.sources.items():
            after_count += len(index_file(text, rel)[0])
        assert after_count == before_count + 1, root

    session = open_project(FIXTURES_DIR / "extract_demo" / "project")
    fragment = validate_fragment(
        (FIXTURES_DIR / "extract_demo" / "fragment.java").read_text(encoding="utf-8")
    )
    host = session.method_at("Pipeline.java", 5)
    matches = find_duplicates(fragment, session.methods, 0.8)
    summary = analyze_extractability(fragment, host, host.owner)
    plan = plan_extraction(
        summary, "bundle", fragment, host, host.owner, matches, session.methods_by_id
    )
    diff = apply_extraction(plan, session.files).diff
    assert diff == (GOLDEN_DIR / "extract_two_sites.diff").read_text(encoding="utf-8")
    print(f"PASS criterion 7: {verified}/{plans} plans inline-verified; golden diff exact")


def test_criterion_8_multi_project_isolation(tmp_path):
    """Identical events, different sensitivities: one fires, one does not,
    and interleaving changes nothing."""
    scenario = load_scenario(SCENARIOS_DIR / "two_projects.json")
    interleaved = run_scenario(scenario)
    golden = (GOLDEN_DIR / "two_projects.log.json").read_text(encoding="utf-8")
    assert serialize_log(interleaved) == golden
    by_project = {e["project"]: e for e in interleaved}
    assert by_project["projects/demo_b1"]["type"] == "recommendation"
    assert by_project["projects/demo_b2"]["type"] == "drop"

    source = json.loads((SCENARIOS_DIR / "two_projects.json").read_text(encoding="utf-8"))
    sequential = []
    for project in source["projects"]:
        solo = load_scenario(SCENARIOS_DIR / "two_projects.json")
        solo_projects = tuple(p for p in solo.projects if p.root == project["root"])
        solo_events = tuple(e for e in solo.events if e.root == project["root"])
        solo = type(solo)(solo_projects, solo_events, solo.until, solo.base_dir)
        sequential.extend(run_scenario(solo))
    assert {e["project"]: e for e in sequential} == by_project
    print("PASS criterion 8: per-session outputs identical, rules isolated")
