"""Q-Wiener noise from a diagonal covariance spectrum.

The driving noise is expanded in the operator eigenbasis: mode k carries an
independent scalar Brownian motion with variance rate q_k.  The covariance
is the plain array of the q_k, which `ModelSpec` checks and stores
read-only.  Sampling is counter-addressed: the standard normals for (master
seed, path, step) are a pure function of those three indices, so results
never depend on scheduling order and coincide across truncation dimensions
(a run with more modes reads more of the same per-step block).  The
simulation kernel scales mode k of those normals by sqrt(q_k h) to get the
step's Wiener increment.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence


class NoiseStream:
    """Per-path Gaussian stream addressed by (master seed, path index, step index).

    Each step owns a disjoint counter segment of a Philox generator keyed by
    (master seed, path index); ``step_normals(j, n)`` returns the first n
    standard normals of segment j.  Two streams built from the same indices
    produce bitwise-identical output.

    The generator is seeded with ``SeedSequence(master_seed, spawn_key=(path,))``,
    from which Philox derives its two key words; passing the sequence rather
    than a key spares Philox an unused entropy-seeded sequence of its own.  The
    stream then builds its Philox state dict once, from plain Python ints: a
    zero counter, the key words read back from the generator, an empty output
    buffer and no cached 32-bit half.  Each draw writes just the
    step index into counter word 2 and assigns the dict, which the bit
    generator only reads.  The setter converts ten counter, key and buffer
    items; a plain int converts directly, while an item of a numpy array first
    becomes a numpy scalar, so the assignment costs less than half of what it
    costs with a copy of ``bitgen.state``, whose fields are numpy arrays.  The
    layout follows numpy's private state format; the golden values in the
    tests pin the stream, so a numpy release that changes that format fails
    loudly.
    """

    def __init__(self, master_seed: int, path_index: int = 0):
        path_index = int(path_index)
        if path_index < 0:
            raise ValueError(f"path index must be >= 0, got {path_index}")
        self._bitgen = Philox(SeedSequence(int(master_seed), spawn_key=(path_index,)))
        self._gen = Generator(self._bitgen)
        key = self._bitgen.state["state"]["key"].tolist()
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def step_normals(
        self, step_index: int, count: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """First `count` standard normal draws of the segment for `step_index`.

        The draws are written into `out` when given, which must be a
        C-contiguous float64 array of shape (count,); it is returned.
        """
        if step_index < 0:
            raise ValueError(f"step index must be >= 0, got {step_index}")
        if out is None:
            out = np.empty(count)
        elif out.shape != (count,):
            raise ValueError(f"out has shape {out.shape}, expected ({count},)")
        self._counter[2] = step_index
        self._bitgen.state = self._state
        return self._gen.standard_normal(out=out)


def example_covariance(n_modes: int) -> np.ndarray:
    """Borderline trace-class spectrum q_1 = 0, q_k = 1/(k ln(k)^2) for k >= 2.

    The trace converges, but weighting by lam_k^r = (k pi)^{2r} diverges for
    every r > 0, which makes this the standard sharpness example.
    """
    if n_modes < 1:
        raise ValueError(f"truncation dimension must be >= 1, got {n_modes}")
    q = np.zeros(n_modes)
    if n_modes >= 2:
        k = np.arange(2, n_modes + 1, dtype=float)
        q[1:] = 1.0 / (k * np.log(k) ** 2)
    return q


def burkholder_constant(p: float) -> float:
    """Moment-inequality constant C(p) = (p(p-1)/2)^{p/2} (p/(p-1))^{p(p/2-1)} for p >= 2."""
    p = float(p)
    if p < 2.0:
        raise ValueError(f"moment order must be >= 2, got {p}")
    return (0.5 * p * (p - 1.0)) ** (0.5 * p) * (p / (p - 1.0)) ** (p * (0.5 * p - 1.0))
