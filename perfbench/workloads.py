"""The benchmark's workloads: seeded inputs, the CLI job, and its output check.

Each workload builds its input files from a seed, names the CLI calls that
make up one job, parses its inputs the way the CLI does (the set-up step),
and checks a job's output bytes.  The check never trusts the program's own
internals: it compares against stored sha256 goldens where the seed has
one, and otherwise against invariants that follow from how the inputs were
built (critical values, known cohomology of the final stage, metric axioms).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random

GOLDENS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def _load_goldens() -> dict[str, dict[str, str]]:
    with open(GOLDENS_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _uniform_points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    return [(rng.random(), rng.random()) for _ in range(n)]


def _distance_csv(points: list[tuple[float, float]]) -> tuple[str, set[float]]:
    n = len(points)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = math.dist(points[i], points[j])
    text = "".join(",".join(repr(x) for x in row) + "\n" for row in d)
    return text, {d[i][j] for i in range(n) for j in range(i + 1, n)}


def _diagram_points(text: str) -> list[dict] | str:
    """The points of a diagram JSON line, or a reason the text is not one."""
    try:
        data = json.loads(text)
        points = data["points"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"not a diagram: {exc}"
    if not isinstance(points, list) or not text.endswith("\n"):
        return "not a diagram"
    for p in points:
        if not isinstance(p, dict) or not isinstance(p.get("value"), int):
            return f"malformed point {p!r}"
        if not p.get("inf") and not p["birth"] < p["death"]:
            return f"empty interval {p!r}"
    return points


class Workload:
    """One CLI job, repeated; subclasses fill in inputs and invariants.

    A workload whose job time depends strongly on the particular input
    draws ``instances`` independent inputs from one seed; a run times them
    in turn and reports the median over instances of each one's median job,
    so every instance weighs the same however many jobs fit in the run.
    Instance 0 of seed 0 is the reference input named in README.md.
    """

    name = ""
    base_seed = 0
    instances = 1
    # The times run.py reports scaled to the nominal host speed (worker.py);
    # the others are reported raw.  A time is scaled only where, in two
    # baseline sets of ten seeds, scaling cut the change of its median from
    # one set to the other at least in half (README.md has the figures).
    scaled = ("wall_s", "setup_s")

    def __init__(self, seed: int, instance: int = 0):
        self.seed = seed
        if instance == 0:
            self.rng = random.Random(self.base_seed + seed)
        else:
            self.rng = random.Random(f"{self.name}:{seed}:{instance}")
        self.files: dict[str, str] = {}
        goldens = _load_goldens().get(self.name, {}).get(str(seed))
        self.golden = goldens[instance] if goldens else None
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def write_inputs(self, workdir: str) -> None:
        os.makedirs(workdir, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)

    def argvs(self, workdir: str) -> list[list[str]]:
        """The CLI calls of one job, in order."""
        raise NotImplementedError

    def load(self, cli, workdir: str):
        """Parse every input file into program objects, as set-up does."""
        raise NotImplementedError

    def invariant_failure(self, output: bytes) -> str | None:
        raise NotImplementedError

    def candidate_count(self) -> int:
        """Erosion candidates over the job's pairs, counted from the inputs."""
        return 0

    def check(self, output: bytes, codes: list[int], reference: str | None) -> str | None:
        """Why the job's output is wrong, or None when it is right.

        ``reference`` is the sha256 every output of this run must match:
        the stored golden for this seed, else the first output of the run.
        """
        if any(code != 0 for code in codes):
            return f"exit codes {sorted(set(codes))}"
        digest = sha256(output)
        if self.golden is not None and digest != self.golden:
            return f"sha256 {digest[:12]} differs from the golden {self.golden[:12]}"
        if reference is not None and digest != reference:
            return f"sha256 {digest[:12]} differs from this run's first output {reference[:12]}"
        return self.invariant_failure(output)


class VrCloud(Workload):
    """cup-diagram of the VR filtration of 40 uniform points (big matrix)."""

    name = "vr_cloud"
    base_seed = 30303
    instances = 4
    # memory-bound big-int XORs: the compute-bound reference loop does not
    # track their speed, and scaling reversed the job time's move between sets
    scaled = ("setup_s",)
    n_points = 40

    def build(self) -> None:
        text, self.distances = _distance_csv(_uniform_points(self.rng, self.n_points))
        self.files["cloud40.csv"] = text

    def argvs(self, workdir):
        return [["cup-diagram", os.path.join(workdir, "cloud40.csv"), "--max-dim", "2"]]

    def load(self, cli, workdir):
        return cli.load_distance_csv(os.path.join(workdir, "cloud40.csv"))

    def invariant_failure(self, output):
        points = _diagram_points(output.decode("utf-8"))
        if isinstance(points, str):
            return points
        if not points:
            return "empty diagram"
        for p in points:
            # the last stage is a full simplex, so nothing is essential
            if p.get("inf"):
                return f"essential point {p!r} in a contractible filtration"
            if p["birth"] not in self.distances or p["death"] not in self.distances:
                return f"endpoint of {p!r} is not a pairwise distance"
            if not 1 <= p["value"] <= 2:
                return f"value of {p!r} outside 1..2"
        return None


class StagedTorus(Workload):
    """cup-diagram of a 32x32 triangulated torus graded from 16 values."""

    name = "staged_torus"
    base_seed = 4141
    instances = 3
    scaled = ("wall_s",)
    side = 32
    levels = 16

    def build(self) -> None:
        n = self.side

        def vid(i, j):
            return (i % n) * n + (j % n)

        simplices: set[tuple[int, ...]] = set()
        for i in range(n):
            for j in range(n):
                a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
                for tri in ((a, b, c), (a, d, c)):
                    t = tuple(sorted(tri))
                    simplices.add(t)
                    simplices.update(itertools.combinations(t, 2))
                    simplices.update((v,) for v in t)
        grade: dict[tuple[int, ...], int] = {}
        for s in sorted(simplices, key=lambda s: (len(s), s)):
            g = self.rng.randrange(self.levels)
            if len(s) > 1:
                g = max([g] + [grade[f] for f in itertools.combinations(s, len(s) - 1)])
            grade[s] = g
        lines = [f"{g} {' '.join(map(str, s))}\n" for s, g in grade.items()]
        self.files["torus32.txt"] = "".join(lines)

    def argvs(self, workdir):
        return [["cup-diagram", os.path.join(workdir, "torus32.txt"), "--max-dim", "2"]]

    def load(self, cli, workdir):
        return cli.load_filtered_complex(os.path.join(workdir, "torus32.txt"))

    def invariant_failure(self, output):
        points = _diagram_points(output.decode("utf-8"))
        if isinstance(points, str):
            return points
        for p in points:
            ends = [p["birth"]] + ([] if p.get("inf") else [p["death"]])
            if any(e not in range(self.levels) for e in ends):
                return f"endpoint of {p!r} is not a grade"
            if not 1 <= p["value"] <= 2:
                return f"value of {p!r} outside 1..2"
        # the last stage is the torus, whose cup-length is 2
        if not any(p.get("inf") and p["value"] == 2 for p in points):
            return "no essential point of value 2"
        return None


class OracleCheck(Workload):
    """oracle-check of the VR filtration of 22 uniform points."""

    name = "oracle_check"
    base_seed = 2222
    instances = 2
    n_points = 22

    def build(self) -> None:
        text, distances = _distance_csv(_uniform_points(self.rng, self.n_points))
        self.files["cloud22.csv"] = text
        grid = len(distances | {0.0})
        self.expected = f"oracle-check: OK ({grid * (grid + 1) // 2} grid intervals)\n"

    def argvs(self, workdir):
        return [["oracle-check", os.path.join(workdir, "cloud22.csv")]]

    def load(self, cli, workdir):
        return cli.load_distance_csv(os.path.join(workdir, "cloud22.csv"))

    def invariant_failure(self, output):
        text = output.decode("utf-8")
        return None if text == self.expected else f"printed {text[:60]!r}"


class ErosionMatrix(Workload):
    """erosion over all pairs of 12 generator-set functions (24 generators)."""

    name = "erosion_matrix"
    base_seed = 1212
    instances = 2
    n_functions = 12
    n_generators = 24
    groups = 3

    def build(self) -> None:
        rng = self.rng
        self.endpoints: list[list[float]] = []
        for i in range(self.n_functions):
            # the top value among unbounded generators sets the group; pairs
            # from different groups are at distance inf, the rest finite
            top = i % self.groups + 1
            n_unbounded = 2 + (rng.random() < 0.4)
            gens, ends = [], []
            for g in range(self.n_generators):
                left = round(rng.uniform(0.0, 10.0), 3)
                ends.append(left)
                item = {"left": left}
                if g < n_unbounded:
                    item["inf"] = True
                    value = top if g == 0 else rng.randint(1, top)
                else:
                    right = round(left + rng.uniform(0.05, 4.0), 3)
                    ends.append(right)
                    item["right"] = right
                    item["inf"] = False
                    value = rng.randint(1, 3)
                item["left_closed"] = rng.random() < 0.5
                item["right_closed"] = False if item["inf"] else rng.random() < 0.5
                item["value"] = value
                gens.append(item)
            self.files[f"f{i:02d}.json"] = json.dumps({"generators": gens}) + "\n"
            self.endpoints.append(ends)
        self.pairs = list(itertools.combinations(range(self.n_functions), 2))

    def argvs(self, workdir):
        def path(i):
            return os.path.join(workdir, f"f{i:02d}.json")

        return [["erosion", path(i), path(j)] for i, j in self.pairs]

    def load(self, cli, workdir):
        out = []
        for i in range(self.n_functions):
            with open(os.path.join(workdir, f"f{i:02d}.json"), "r", encoding="utf-8") as fh:
                out.append(cli.parse_function(fh.read()))
        return out

    def candidates(self, i: int, j: int) -> set[float]:
        """Every value an exact erosion distance of the pair can take."""
        ends = self.endpoints[i] + self.endpoints[j]
        out = {0.0}
        for a, b in itertools.combinations_with_replacement(ends, 2):
            out.add(abs(a - b))
            out.add(abs(a - b) / 2.0)
        return out

    def candidate_count(self):
        return sum(len(self.candidates(i, j)) for i, j in self.pairs)

    def invariant_failure(self, output):
        lines = output.decode("utf-8").split("\n")
        if len(lines) != len(self.pairs) + 1 or lines[-1] != "":
            return f"{len(lines) - 1} lines for {len(self.pairs)} pairs"
        d = {}
        for (i, j), line in zip(self.pairs, lines):
            try:
                value = float(line)
            except ValueError:
                return f"pair {i},{j}: {line!r} is not a number"
            finite = i % self.groups == j % self.groups
            if math.isinf(value) == finite:
                return f"pair {i},{j}: {line} but the pair is {'finite' if finite else 'infinite'}"
            if finite and value not in self.candidates(i, j):
                return f"pair {i},{j}: {line} is not an endpoint difference"
            d[i, j] = d[j, i] = value
        for i, j, k in itertools.permutations(range(self.n_functions), 3):
            if d[i, j] > d[i, k] + d[k, j] + 1e-9:
                return f"triangle inequality fails on {i},{j},{k}"
        return None


WORKLOADS = {w.name: w for w in (VrCloud, StagedTorus, OracleCheck, ErosionMatrix)}
