"""The three benchmark workloads.

Each workload names the CLI commands of its set-up and of one timed
pass, the work one pass does, and the checks on a pass's outputs.  Every
check is a (label, ok) pair and counts as one attempted operation.
``tamper`` corrupts one output of the latest pass, so that the checks
can be shown to fail.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import oracles

# input sizes: every command of a pass takes well under a second on the
# seed commit, so that a run times each command many times (see run.py)
WIDTH, TICKS = 8, 60
DAG_N = 400
LATTICE = ("--width", str(WIDTH), "--ticks", str(TICKS))
SUITES = ("census", "pythagoras", "simplex", "subspaces", "parallel", "dot",
          "wedge", "geoproduct")


class Workload:
    name = ""
    why = ""
    work_unit = ""
    # set-ups before the first pass and after each pass
    setup_reps = 1

    def __init__(self, work: Path, seed: int, meta: dict) -> None:
        self.work = work
        self.seed = seed
        self.meta = meta

    def path(self, name: str) -> str:
        return str(self.work / name)

    def setup_commands(self) -> list[list[str]]:
        return []

    def prepare(self) -> None:
        """One-time work after set-up, outside every timing."""

    def pass_commands(self) -> list[list[str]]:
        raise NotImplementedError

    def work_per_pass(self) -> int:
        raise NotImplementedError

    def check(self, pass_no: int) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def once(self) -> list[tuple[str, bool]]:
        """Checks made once per run, after the passes."""
        return []

    def tamper(self) -> None:
        raise NotImplementedError


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fp:
        return fp.read()


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except (OSError, ValueError):
        return None


class Census(Workload):
    name = "census"
    why = ("read path: classify all 36 chain pairs of lattice 8x60 "
           "(549 events, 19,764 attempts); projection and collinearity "
           "do most of the work")
    work_unit = "(event, chain-pair) classifications attempted"
    attempts = 0

    def setup_commands(self):
        return [["generate", "lattice1p1", *LATTICE, "--out", self.path("lattice.json")]]

    def prepare(self):
        self.doc = _read_json(self.path("lattice.json"))
        chains = len(self.doc["chains"])
        self.attempts = len(self.doc["events"]) * chains * (chains - 1) // 2
        self.expected = oracles.lattice_census(WIDTH, TICKS)

    def pass_commands(self):
        return [["classify", self.path("lattice.json"), "all", "all",
                 "--format", "csv", "--out", self.path("census.csv")]]

    def work_per_pass(self):
        return self.attempts

    def check(self, pass_no):
        try:
            raw = Path(self.path("census.csv")).read_bytes()
        except OSError:
            raw = b""
        digest = hashlib.sha256(raw).hexdigest()
        return [
            ("csv matches the seed-commit digest",
             digest == self.meta["census_csv_sha256"]),
            ("csv histogram matches the coordinate oracle",
             oracles.csv_histogram(raw.decode("utf-8", "replace")) == self.expected),
        ]

    def once(self):
        bad = oracles.sampled_codes_match(
            self.doc, WIDTH, TICKS, random.Random(self.seed), 256)
        return [("sampled codes: document closure agrees with coordinates", not bad)]

    def tamper(self):
        path = Path(self.path("census.csv"))
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(r"(\d)\n", lambda m: f"{(int(m[1]) + 1) % 10}\n",
                               text, count=1), encoding="utf-8")


def _without_time(text: str) -> str:
    return re.sub(r',\s*"wall_time_ms":\s*\d+', "", text)


class Suites(Workload):
    name = "suites"
    why = ("all eight verify suites at default parameters (136 checks), "
           "parallel seeded; many small metric posets through generators, "
           "fence and coordination")
    work_unit = "checks"
    # a pass takes seconds, so a run has few; an import takes about 50 ms
    setup_reps = 4

    def __init__(self, work, seed, meta):
        super().__init__(work, seed, meta)
        self.reference: dict[str, str] = {}
        self.checks = 0

    def pass_commands(self):
        out = []
        for suite in SUITES:
            argv = ["verify", suite, "--out", self.path(f"{suite}.json")]
            if suite == "parallel":
                argv += ["--seed", str(self.seed)]
            out.append(argv)
        return out

    def work_per_pass(self):
        return self.checks

    def check(self, pass_no):
        results = []
        checks = 0
        for suite in SUITES:
            path = self.path(f"{suite}.json")
            try:
                text = _read(path)
                report = json.loads(text)
                items = report["results"]
            except (OSError, ValueError, KeyError, TypeError):
                results.append((f"{suite}: report readable", False))
                continue
            checks += len(items)
            results.append((f"{suite}: report has checks and passes",
                            bool(items) and report.get("pass") is True))
            results += [(f"{suite}: {r.get('check')}", r.get("pass") is True)
                        for r in items]
            stable = _without_time(text)
            if suite in self.reference:
                results.append((f"{suite}: report identical across passes",
                                stable == self.reference[suite]))
            else:
                self.reference[suite] = stable
        self.checks = self.checks or checks
        return results

    def tamper(self):
        path = Path(self.path("parallel.json"))
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"pass": true', '"pass": false', 1),
                        encoding="utf-8")


class Roundtrip(Workload):
    name = "roundtrip"
    why = ("write path: random DAG n=400 (seeded) exported to JSON and DOT, "
           "lattice 8x60 generated and re-exported; closure and cover "
           "reduction, no projections")
    work_unit = "events written plus events read"

    def __init__(self, work, seed, meta):
        super().__init__(work, seed, meta)
        self.first_dag: bytes | None = None
        self.events = 0

    def pass_commands(self):
        p = self.path
        return [
            ["generate", "randomdag", "--n", str(DAG_N), "--p", "0.1",
             "--seed", str(self.seed), "--out", p("dag.json")],
            ["export", p("dag.json"), "--format", "json", "--out", p("dag.out.json")],
            ["export", p("dag.json"), "--format", "dot", "--out", p("dag.dot")],
            ["generate", "lattice1p1", *LATTICE, "--out", p("lattice.json")],
            ["export", p("lattice.json"), "--format", "json",
             "--out", p("lattice.out.json")],
        ]

    def work_per_pass(self):
        return self.events

    def check(self, pass_no):
        p = self.path

        def raw(name):
            try:
                return Path(p(name)).read_bytes()
            except OSError:
                return None

        dag, lattice = _read_json(p("dag.json")), _read_json(p("lattice.json"))
        dag_bytes = raw("dag.json")
        try:
            dot = _read(p("dag.dot"))
        except OSError:
            dot = ""
        edges = len(re.findall(r"^\s*\"[^\"]+\" -> \"[^\"]+\";$", dot, re.M))
        nodes = len(re.findall(r"^\s*\"[^\"]+\"( \[[^\]]*\])?;$", dot, re.M))
        docs_ok = dag is not None and lattice is not None
        results = [
            ("documents readable", docs_ok),
            ("dag: json export reproduces the document",
             dag_bytes is not None and raw("dag.out.json") == dag_bytes),
            ("lattice: json export reproduces the document",
             raw("lattice.json") is not None
             and raw("lattice.out.json") == raw("lattice.json")),
        ]
        if docs_ok:
            results += [
                ("dag: dot edges equal covers", edges == len(dag["covers"])),
                ("dag: dot nodes equal events", nodes == len(dag["events"])),
                ("dag: covers are a transitive reduction",
                 oracles.covers_irredundant(dag)),
                ("lattice: covers match coordinates",
                 oracles.lattice_covers_match(lattice)),
            ]
            # written: dag json, dag export, dot, lattice, lattice export;
            # read: dag twice, lattice once
            self.events = self.events or (
                5 * len(dag["events"]) + 3 * len(lattice["events"])
            )
        if self.first_dag is None:
            self.first_dag = dag_bytes
        else:
            results.append(("dag: identical across passes", dag_bytes == self.first_dag))
        return results

    def tamper(self):
        path = Path(self.path("lattice.out.json"))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["covers"][0], doc["covers"][1] = doc["covers"][1], doc["covers"][0]
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=2)
            fp.write("\n")


WORKLOADS = {w.name: w for w in (Census, Suites, Roundtrip)}
