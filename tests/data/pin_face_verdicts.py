"""Write the pinned face verdicts in pinned_verdicts_c7a7149.json.

The references are the verdicts, certificate found or not, that
``certify.search_certificate`` returned at commit c7a7149, whose last
step was a log-barrier Newton solve over the face's P.  The cases are
14 840 searches in 41 groups, each block at the bus dampings DAMPINGS:

- ``random_<seed>`` for seeds 601 to 640: the 48 blocks of order 2 to 5
  among the 60 of ``random_blocks(seed, 60)``, each with a feedthrough
  (an order-1 block is decided by its closed form);
- ``chain_601``: 200 chains of lags of order 2 to 6 read out through a
  mix of their states plus a feedthrough, from numpy seed 601, with k_c
  and k_d uniform on [0.3, 2].

Each group holds one character per search, block by block and damping by
damping within a block: 1 where a certificate was found, else 0.  The
search at c7a7149 also certified 404 searches of blocks whose DC gain K
is not positive, whose k_f = K k_c is no gain; a later search refuses
every block with K <= 0, and of the others may certify more, never
fewer.  tests/test_certify.py reads its random and chain blocks from
here.  To regenerate the pin:

    mkdir OLD && git archive c7a7149 src | tar -x -C OLD
    PYTHONPATH=OLD/src python3 tests/data/pin_face_verdicts.py \
        > tests/data/pinned_verdicts_c7a7149.json
"""

import json

import numpy as np

from gridfreq.certify import search_certificate
from gridfreq.control import ControllerGains
from gridfreq.generation import LtiGenerator

#: The bus dampings each block is searched at.
DAMPINGS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

#: The seeds of the random groups, the blocks per seed and the chains.
SEEDS = range(601, 641)
PER_SEED = 60
CHAINS = 200


def block(a, b, c, d) -> LtiGenerator:
    return LtiGenerator(a_matrix=tuple(tuple(r) for r in a), b_vector=tuple(b),
                        c_vector=tuple(c), d_scalar=d, order=len(b))


def gains(k_c: float, k_d: float) -> ControllerGains:
    return ControllerGains(gamma=1.0, k_f=1.0, k_c=k_c, k_d=k_d, q=1.0)


def random_blocks(seed: int, count: int):
    """Hurwitz blocks of order 1 to 5 with a feedthrough D != 0, their
    gains and the generator that drew them."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        order = 1 + i % 5
        a = (-np.diag(rng.uniform(0.3, 5.0, order))
             + np.tril(rng.normal(size=(order, order)), -1))
        gen = block(a.tolist(), rng.normal(size=order).tolist(),
                    rng.normal(size=order).tolist(),
                    float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)))
        yield gen, gains(float(rng.uniform(0.2, 3.0)),
                         float(rng.uniform(0.2, 3.0))), rng


def chain_block(rng: np.random.Generator, order: int) -> LtiGenerator:
    """A chain of lags read out through a mix of its states plus a
    feedthrough, DC gain k: never one of the worked shapes."""
    t = rng.uniform(0.15, 1.5, order)
    k = rng.uniform(0.8, 1.2)
    f = rng.uniform(0.1, 0.3)
    a = np.diag(-1.0 / t) + np.diag(1.0 / t[1:], -1)
    b = np.zeros(order)
    b[0] = k / t[0]
    w = rng.uniform(0.2, 1.0, order)
    return block(a.tolist(), b.tolist(), ((1.0 - f) * w / w.sum()).tolist(),
                 float(f * k))


def chain_blocks():
    """The chain group's blocks and gains."""
    rng = np.random.default_rng(601)
    for i in range(CHAINS):
        gen = chain_block(rng, 2 + i % 5)
        k_c, k_d = rng.uniform(0.3, 2.0, 2)
        yield gen, gains(float(k_c), float(k_d))


def groups() -> dict:
    """Each group's name and its (block, gains) pairs."""
    out = {f"random_{seed}": [(gen, params) for gen, params, _ in
                              random_blocks(seed, PER_SEED) if gen.order > 1]
           for seed in SEEDS}
    out["chain_601"] = list(chain_blocks())
    return out


def verdicts(pairs) -> str:
    """One character per search: 1 where a certificate is found."""
    return "".join(
        "1" if search_certificate(gen, params, lam) is not None else "0"
        for gen, params in pairs for lam in DAMPINGS)


if __name__ == "__main__":
    print(json.dumps({name: verdicts(pairs)
                      for name, pairs in groups().items()}, indent=1))
