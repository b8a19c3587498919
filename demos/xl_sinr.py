"""Downlink SINR in the non-stationary XL-MIMO scenario.

Builds the extra-large array scenario (clusters with visibility regions
and per-antenna path loss), assembles multi-user channels, and compares
conjugate beamforming against zero forcing with and without spatial
correlation inside each cluster.  Fewer trials than the presets, so the
script finishes in seconds; use `chansim preset fig15a` for the full
experiment.

Run:  python3 demos/xl_sinr.py
"""

import dataclasses

import numpy as np

from chansim import metrics
from chansim.presets import preset
from chansim.registry import xl_sinr_noise_power
from chansim.runner import run_experiment


def main():
    for name, label in (("fig15a", "scheme 1, conjugate beamforming"),
                        ("fig15b", "scheme 1, zero forcing")):
        cfg = dataclasses.replace(preset(name), trials=50)
        print("%s (50 trials, noise power %.3g)" % (label, xl_sinr_noise_power(cfg)))
        print("num_users,correlation,mean_sinr,stderr")
        res = run_experiment(cfg)
        for k, corr, mean, stderr, *_ in res.rows:
            print("%d,%s,%.3f,%.3f" % (k, corr, mean, stderr))
        print()

    # The same machinery exposed at a lower level: one realization,
    # per-user SINR values instead of the trial mean.
    from chansim import precoding, xlmimo
    cfg = dataclasses.replace(preset("fig15a"), num_users=5)
    rng = np.random.default_rng(1)
    scheme = xlmimo.ClusterScheme(kind="scheme1", d1=cfg.d1, d2=cfg.d2)
    scenario = xlmimo.build_scenario(scheme, cfg.num_users, cfg.clusters_per_user,
                                     rng, r_bounds=(cfg.r_min, cfg.r_max))
    h = xlmimo.assemble_channel_matrix(scenario, rng)
    p = np.full(cfg.num_users, cfg.total_power / cfg.num_users)
    w = precoding.normalize_columns(precoding.cb_precoder(h), p)
    gamma = metrics.sinr_per_user(h, w, xl_sinr_noise_power(cfg))
    print("single realization, per-user SINR:",
          ", ".join("%.2f" % g for g in gamma))


if __name__ == "__main__":
    main()
