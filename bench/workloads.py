"""The benchmark's workloads and pinned digests.

Every workload is one ``qpebble simulate`` call on a padded path graph.
The graph's port labels come from the workload seed; the sample count,
trial count and everything else are fixed here, so the same seed always
gives the same inputs and the same records.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    dist: int
    delta: int
    scheme: str
    strategy: str
    trials: int
    # set-up repetitions per process, so the sub-millisecond set-ups of the
    # D=10 graphs are a median of many, not one noisy reading
    setup_reps: int
    # SHA-256 of the records CSV at DEFAULT_SEED and this trial count
    golden_sha256: str

    @property
    def gen(self) -> str:
        return f"path:D={self.dist},delta={self.delta}"

    def cli_argv(self, seed: int, out_csv: str) -> list[str]:
        return [
            "simulate",
            "--gen", self.gen,
            "--scheme", self.scheme,
            "--strategy", self.strategy,
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--workers", "1",
            "--out", out_csv,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short_fixed",
            dist=10,
            delta=4,
            scheme="general",
            strategy="fixed:auto",
            trials=4000,
            setup_reps=50,
            golden_sha256="da76a75ac4457d55186d936d6b6889e20b23c69d783ea889012fa8b1ad29c914",
        ),
        Workload(
            name="long_route",
            dist=20000,
            delta=8,
            scheme="general",
            strategy="fixed:auto",
            trials=2,
            setup_reps=1,
            golden_sha256="cde316ea285ff1d73d0c1ca74174ad95d8aef46f152c59a2e29bac7e57143261",
        ),
        Workload(
            name="adaptive_wide",
            dist=100,
            delta=8,
            scheme="general",
            strategy="adaptive",
            trials=200,
            setup_reps=50,
            golden_sha256="37ecd95ed0c34961813aebdcc5605b90f218d8076d69d8494f83dd00b003d6dc",
        ),
        Workload(
            name="bulk_records",
            dist=10,
            delta=4,
            scheme="qudit",
            strategy="qudit",
            trials=200000,
            setup_reps=50,
            golden_sha256="352b6632bf882879ff4d266e1e2d60d9cefdfec573828d8e46ad461e5e03df67",
        ),
    )
}
