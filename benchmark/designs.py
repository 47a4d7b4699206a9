"""Seeded Bookshelf designs for the benchmark workloads.

ibm01 is exactly the repository's synthetic ICCAD04-ibm01-scale design
(tests/fixture_gen.write_synthetic_design) at the given seed. fanout keeps
that design's node set, placement and rows and replaces its nets with the
same number of nets whose degrees are drawn uniformly from 6..20, so that no
net collapses to three distinct grid cells and star L-routes dominate.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from pathlib import Path

import fixture_gen
from fixture_gen import write_synthetic_design

FANOUT_DEGREES = (6, 20)
DESIGNS = ("ibm01", "fanout")

# A reduced node and net count for smoke tests; the generator is unchanged.
TINY_COUNTS = {
    "N_STDCELLS": 600, "N_MACROS": 16, "N_PORTS": 24, "N_FIXED_MACROS": 2,
    "N_NETS": 700, "N_OUTSIDE_PORTS": 3, "N_OVERSIZED_OFFSETS": 2,
}


@contextmanager
def _counts(overrides: dict):
    saved = {k: getattr(fixture_gen, k) for k in overrides}
    try:
        for k, v in overrides.items():
            setattr(fixture_gen, k, v)
        yield
    finally:
        for k, v in saved.items():
            setattr(fixture_gen, k, v)


def _node_dims(nodes_path: Path) -> dict:
    """name -> (width, height) from a .nodes file written by fixture_gen."""
    dims = {}
    for line in nodes_path.read_text().splitlines():
        tok = line.split()
        if len(tok) >= 3 and not tok[0].startswith(("UCLA", "Num")):
            dims[tok[0]] = (float(tok[1]), float(tok[2]))
    return dims


def _write_fanout_nets(nets_path: Path, dims: dict, n_nets: int, seed: int) -> int:
    """Overwrite the .nets file with high-degree nets; returns the pin count."""
    rng = random.Random(f"fanout-nets:{seed}")
    names = list(dims)
    lines = []
    n_pins = 0
    for i in range(n_nets):
        k = rng.randint(*FANOUT_DEGREES)
        lines.append(f"NetDegree : {k} n{i}")
        for j, member in enumerate(rng.sample(names, k)):
            direction = "O" if j == 0 else "I"
            w, h = dims[member]
            if w == 0:
                lines.append(f"\t{member} {direction}")
            else:
                dx = rng.uniform(-w / 2.0, w / 2.0)
                dy = rng.uniform(-h / 2.0, h / 2.0)
                lines.append(f"\t{member} {direction} : {dx:.2f} {dy:.2f}")
        n_pins += k
    nets_path.write_text(
        "UCLA nets 1.0\n\n"
        f"NumNets : {n_nets}\n"
        f"NumPins : {n_pins}\n"
        + "\n".join(lines) + "\n")
    return n_pins


def _count_nets(nets_path: Path) -> int:
    for line in nets_path.read_text().splitlines():
        if line.startswith("NumNets"):
            return int(line.split(":")[1])
    raise ValueError(f"{nets_path} has no NumNets line")


def write_design(kind: str, out_dir, seed: int, tiny: bool = False) -> Path:
    """Write design `kind` generated from `seed` into out_dir; returns the .aux.

    tiny=True shrinks the node and net counts for smoke tests.
    """
    if kind not in DESIGNS:
        raise ValueError(f"unknown design {kind!r}; expected one of {DESIGNS}")
    with _counts(TINY_COUNTS if tiny else {}):
        aux = write_synthetic_design(out_dir, name=kind, seed=seed)
    if kind == "fanout":
        out = Path(out_dir)
        nets = out / f"{kind}.nets"
        _write_fanout_nets(nets, _node_dims(out / f"{kind}.nodes"), _count_nets(nets), seed)
    return aux
