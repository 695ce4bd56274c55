"""Frozen golden outputs: SHA-256 of every CSV the CLI writes.

The digests were recorded from the round loop that recomputed every hop
cost and reclassified every node each round, before the per-build route
table replaced it; the sweep-fig4 digests were recorded from the lazy
greedy cover. Any change to routing, energy, lifetime or load numbers,
or to the CSV formatting, changes a digest. Re-record only for a
change that alters output bytes on purpose, and say why. The
run_metrics.csv digests of cover-raw-step, cover-raw-still-noevents,
mmevbt-move and mmevbt-still were re-recorded when total_energy_J became
the energy drained: each of those runs overdraws a battery in its last
round.

The scenarios are small and their batteries low, so runs end within a
few dozen rounds after node deaths, eligibility rebuilds, sink
relocations (some reverted) and a mid-run construction failure. The two
long cases pin the benchmark layout's full mmevbt run, which ends at
round 1645 on a failed rebuild after 187 reconstructions and no death.
"""

import contextlib
import hashlib
import io
import os

import pytest

from vbtsim.cli import main

LOW = ["--set", "energy.e_init=0.05", "--set", "policy.th=0.005"]
# 60 nodes at range 45, layout seed 16: connected, but relocations that
# strand nodes are common, so some are reverted.
SCENARIO = ["--set", "n_nodes=60", "--range", "45", "--seed", "16"] + LOW
# 200 nodes at full battery: long runs with only relocation rebuilds.
SCENARIO_FULL = ["--set", "n_nodes=200", "--range", "35", "--seed", "4"]
# The benchmark's 1000-node layout, cut to a few relocations.
SCENARIO_1000 = ["--set", "n_nodes=1000", "--range", "15", "--seed", "7"]


def _sets(*pairs):
    return [arg for pair in pairs for arg in ("--set", pair)]


def _run(algo, *extra, events=True, scenario=SCENARIO, low=True):
    argv = ["run", "--seed", "1"] + _sets(f"algorithm={algo}", *extra)
    if low:
        argv += LOW + _sets("traffic.rounds_max=300")
    return {"gen": scenario, "argv": argv + (["--events"] if events else [])}


MOVE = ("policy.t_move=5",)
STEP = ("policy.t_move=5", "policy.max_step=15")
STILL = ("policy.t_move=0",)
RAW = ("fitness.mode=raw",)
LONG = ("traffic.rounds_max=20000", "policy.t_move=50")

CASES = {
    "mmevbt-still": _run("mmevbt", *STILL),
    "mmevbt-move": _run("mmevbt", *MOVE),
    "mmevbt-step-noevents": _run("mmevbt", *STEP, events=False),
    "cover-still": _run("min_cover_best_parent", *STILL),
    "cover-move": _run("min_cover_best_parent", *MOVE),
    "cover-raw-step": _run("min_cover_best_parent", *RAW, *STEP),
    "cover-raw-still-noevents": _run("min_cover_best_parent", *RAW, *STILL,
                                     events=False),
    "balanced-still": _run("balanced_probabilistic", *STILL),
    "balanced-move": _run("balanced_probabilistic", *MOVE),
    "balanced-raw-step": _run("balanced_probabilistic", *RAW, *STEP),
    "balanced-raw-still-noevents": _run("balanced_probabilistic", *RAW,
                                        *STILL, events=False),
    "mmevbt-full": _run("mmevbt", "traffic.rounds_max=120",
                        "policy.t_move=40", scenario=SCENARIO_FULL,
                        low=False),
    "balanced-full": _run("balanced_probabilistic", "traffic.rounds_max=120",
                          "policy.t_move=40", scenario=SCENARIO_FULL,
                          low=False),
    "mmevbt-1000": _run("mmevbt", "traffic.rounds_max=60", "policy.t_move=25",
                        events=False, scenario=SCENARIO_1000, low=False),
    "balanced-1000": _run("balanced_probabilistic", "traffic.rounds_max=60",
                          "policy.t_move=25", scenario=SCENARIO_1000,
                          low=False),
    # the benchmark layout's long mmevbt run: 1645 rounds, 187 rebuilds
    "mmevbt-long": _run("mmevbt", *LONG, events=False,
                        scenario=SCENARIO_1000, low=False),
    "mmevbt-long-events": _run("mmevbt", *LONG, scenario=SCENARIO_1000,
                               low=False),
    "sweep-fig3": {"gen": None,
                   "argv": ["sweep-fig3"] + _sets("n_nodes=60",
                                                  "ranges=30,40",
                                                  "target_successes=3",
                                                  "max_attempts=20")
                   + ["--seed", "2"]},
    # range 17 fails on most layouts and exhausts its attempts; range 30
    # reaches its target
    "sweep-fig4": {"gen": None,
                   "argv": ["sweep-fig4"] + _sets("n_nodes=300",
                                                  "ranges=17,30",
                                                  "target_successes=2",
                                                  "max_attempts=8")
                   + ["--seed", "3"]},
}

DIGESTS = {
    "balanced-1000": {
        "run_alive.csv":
            "44d289706787fa682f1814e20ebbc9089f4feb0a9284bffca5dddcdc38d4409e",
        "run_events.csv":
            "ebbee0f50bb49526d33282b7d31f03ff2218232c0be89466390e910423f6ec47",
        "run_loads.csv":
            "612ac1185ac2cd590a6e198f890951bb8709934887851275292c726c73f01b29",
        "run_metrics.csv":
            "4ec4227422f96022d2ae144c9702c8f1fb6b64b5c994a103bcf47dd883b6226b",
    },
    "balanced-full": {
        "run_alive.csv":
            "15f1bf9f5070ffc60abab0621d019ca0b3ee8146524899cb0c7de54df923b824",
        "run_events.csv":
            "f6b4e654f64c10f8f094ebda82561f3311428f056aa88a5ff4263f5a3775eb71",
        "run_loads.csv":
            "c912bd18c15df1f9e1544c09b476871d3fd5899b62d57e9c14e2bc466f779f98",
        "run_metrics.csv":
            "b1014695dc45214758ba1200fa167410d2be9117142816592eb31f0b6e4afb8a",
    },
    "balanced-move": {
        "run_alive.csv":
            "35a24dc371f99e0692a022e0ec863f34e51ba4603f6c263a4c6107ee2fa3bc61",
        "run_events.csv":
            "50425612f0eaa6a0f560a1e987b925d61303234894fdf2667a5e854b95b7df50",
        "run_loads.csv":
            "9b468f5c8f8faaa10da00e474a4c2473eea2ad00b6aa2e0d29e85a6d22e23049",
        "run_metrics.csv":
            "eadcb034540e534437a5f46a010d7c0402437a311fe3a51d129c8d6fb9d408cf",
    },
    "balanced-raw-step": {
        "run_alive.csv":
            "265d7d3e37390ff7644dace4155ddc62c0b5fc7c3dd39702782055e0b915f277",
        "run_events.csv":
            "2665038c8ed595e3f77a7d26e14f692e72c0705175abecaf0f5b3b5d76816919",
        "run_loads.csv":
            "6f88acf4eeb7c2fba49990e20cbd939c77bf7affa34e2653bf1ae9d68035666b",
        "run_metrics.csv":
            "cb17f07727d98b8319a882854554bcb5c3c100a99611eccde2ce242c227e5cc6",
    },
    "balanced-raw-still-noevents": {
        "run_alive.csv":
            "ab29cfe67f1b24ef9abd96dd9b41bb74840ab4086a2099233575ed608cf9f890",
        "run_loads.csv":
            "ebdded3e691197f57587a88ef15c19d9e158ddad8f467dac1ed3c2a962464cff",
        "run_metrics.csv":
            "a8933b9292d55bb350061acbc7611519a4f8eca9d5cfeb8ab6a27b1b5eda6b54",
    },
    "balanced-still": {
        "run_alive.csv":
            "01711fcd7e398d7e5e9e0482565a790121f4450769ccf48b32429ca4169256a0",
        "run_events.csv":
            "6b4fffcc9d55fa967c64b79adb56357355752cf06c872f1f5d50ec8afa58b9f8",
        "run_loads.csv":
            "f7b9f6e131cd40cf9dc0f15815e2d61bb0e32249004e7196e1054adcd6a6651e",
        "run_metrics.csv":
            "f7f38e6231eed1682a170edcde0f8142d261ef025fe8ca955a1851992accc330",
    },
    "cover-move": {
        "run_alive.csv":
            "adb9f35add8c6523dd0d527f7ff73d9a25a62e8b75b6ebdcb62bdd318157ab1a",
        "run_events.csv":
            "55772b465916b17118730f192047062f4c32e0ab949cb70f62b4fd4fdac15a2f",
        "run_loads.csv":
            "d118aefa98ec687712d31d88b4e857afe91ccd4c59febf5e6aa436f03e856c3b",
        "run_metrics.csv":
            "f4bbfff96d1fbb58e3242b4705fabd86484d376713f5dd02527e6fd109a1942c",
    },
    "cover-raw-step": {
        "run_alive.csv":
            "010f170c7ad0bdff326e4a87f1f870ca6a43480973b9a15f38e99fbedc59353f",
        "run_events.csv":
            "12d02bcfae73e485d58618f9dd65064b17aa0297316e88c16209f2ec0bcc3a59",
        "run_loads.csv":
            "aa777e266f5c5977dd9b51e12fdaac9e6db2cce9f822cefa5d9e6f786f7b53f1",
        "run_metrics.csv":
            "dcbb7580462ef8827278e41fc8dbb04751b7551053dd71af5d1802fbdef1438f",
    },
    "cover-raw-still-noevents": {
        "run_alive.csv":
            "8f6b031f659ac324024d54c2d29a4181a37acea2ab86161f2babce93f7b33c0b",
        "run_loads.csv":
            "1e251ec55031f9ee5e17ac335ff8def839c5ed11ee86a81e69c2b1df364fe2ec",
        "run_metrics.csv":
            "e71294c85c424e91010bde6d327e04bcf2caeb98b65384b233ec72309f469f1f",
    },
    "cover-still": {
        "run_alive.csv":
            "d17921a42741c710c9f50cf3ad2912d60497746b93ccde04605b0fffaa08c03d",
        "run_events.csv":
            "6ca5fa234c1cbc5ecf8c2ecf14a3eca032c6de1c435c2277051cde603bed2c41",
        "run_loads.csv":
            "eae34fad0a57b6f5f120d274a5c5ff14536a9c2f36b2e760ea1bf867348c2533",
        "run_metrics.csv":
            "c764a0c137bf104a0331c0611528906e7860450c41e012be32eff53db07c4a24",
    },
    "mmevbt-1000": {
        "run_alive.csv":
            "495c650827cf579d3c33fae93cedff3839f55cab9631b602ab09247348e694e9",
        "run_loads.csv":
            "14a852914c8b353df9c028bd25efbadbc86526a02f5d87038ade8cbdc5ca7264",
        "run_metrics.csv":
            "2388acc5646e32b7db3b907c83e1fad18cd26b721511e713454d61ac426fbe2a",
    },
    "mmevbt-full": {
        "run_alive.csv":
            "41c132f9f1c939bc15862cbbccc291c4f3ddafbbe9c1de8f5b2523ae356ff535",
        "run_events.csv":
            "a77c32f4176ff24dbe6e2798a24ecd5e09dd6ccfc802f67a778a3228be88730e",
        "run_loads.csv":
            "dd3dfb0269a6190fe6a8434d58c4cff7094bf8ff0fc2afe60c5533431dfe69a6",
        "run_metrics.csv":
            "b59db70109c570e5824d10a0b4904d8ee4cb0c116d60ea00f9930903d994bf7c",
    },
    "mmevbt-long": {
        "run_alive.csv":
            "4f255693dc16001a1a54851c8197955020bd2ee064ba63be7fc12f40e6c2d088",
        "run_loads.csv":
            "cce7e5c578d8a7ab280615b51c8cf34c19109b9bdaa706b7ecd49d47d6a61703",
        "run_metrics.csv":
            "015d123fc3a501c35147ee832109de6c8bd999e3f4e5567a0722b5dc799c1742",
    },
    "mmevbt-long-events": {
        "run_alive.csv":
            "4f255693dc16001a1a54851c8197955020bd2ee064ba63be7fc12f40e6c2d088",
        "run_events.csv":
            "c7dfa6204fecc67a45c2bc1239c6cffc8e7cd910588be4e6dca4bc9b17134506",
        "run_loads.csv":
            "cce7e5c578d8a7ab280615b51c8cf34c19109b9bdaa706b7ecd49d47d6a61703",
        "run_metrics.csv":
            "015d123fc3a501c35147ee832109de6c8bd999e3f4e5567a0722b5dc799c1742",
    },
    "mmevbt-move": {
        "run_alive.csv":
            "42fdf35cebd689b179a7865960a1586a45bf2dee76c3a75da8d29e79e945ad0c",
        "run_events.csv":
            "6283c47b76d4bcff055db339c30cf1acca4fe24ea823a2f1277fe0ecda5f07a4",
        "run_loads.csv":
            "adf8625e2c134e3490e17d8356cb178e262423f4bf2758719ca11f41c7011a84",
        "run_metrics.csv":
            "b88ac0bdf6f96d646de77fb5a23136117b1275cfc587e9ed8466ff11c53a7fec",
    },
    "mmevbt-step-noevents": {
        "run_alive.csv":
            "c79d677b212914996a1db5c655d49cf2b013e2b0874effd96005bb26cd6fed64",
        "run_loads.csv":
            "6887fcf5925327a3795e26bd3f2dea2ced754dd18bbdb9a3502135aa086574d6",
        "run_metrics.csv":
            "a651b5323bf36d2ea2afc1c00ea48fa107b74da0dced285603d36bf995a0b98f",
    },
    "mmevbt-still": {
        "run_alive.csv":
            "ff3aca54337e5b13d2a06266f4171bdea28e3451d95711f197d8d8bc078dcbcb",
        "run_events.csv":
            "9e367ad957f32d02cb14d6052b85bce02bbfe11db1dc360cde3a3dd5fcb2d807",
        "run_loads.csv":
            "bb98edd664e7aef635fd57e0ec5a79f31c7185c76827e83a85d2997d090f2fdb",
        "run_metrics.csv":
            "33432e411f1fe6d13499ac162a58784aad3f8c65fb3c626a5ed85b41c01c8000",
    },
    "sweep-fig3": {
        "fig3_attempts.csv":
            "a487413e017f63b1bac7925f9d926d68d49003d446fbfc9173ebbb27df182b7c",
        "fig3_summary.csv":
            "0b75c92bf3bbf6f300b1edb1213f2b71f81e7e1dd78d252bdb0c60461b33f418",
    },
    "sweep-fig4": {
        "fig4_attempts.csv":
            "bd50ad9c8c608be0b7c5d96443ed3484cf3297801a630b58b3098b3adda98675",
        "fig4_summary.csv":
            "d5453a197f92ce6f91bb7e314cc1cae7996302cda5e4a1ec608d92d848c81302",
    },
}


def case_digests(case, workdir):
    """Run one case in workdir; {csv name: sha256 hex} of what it wrote."""
    out = os.path.join(workdir, "out")
    argv = list(case["argv"])
    if case["gen"] is not None:
        scenario = os.path.join(workdir, "scenario.txt")
        argv.insert(1, scenario)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen-scenario", scenario] + case["gen"]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", out]) == 0
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    assert case_digests(CASES[name], str(tmp_path)) == DIGESTS[name]
