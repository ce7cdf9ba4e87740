"""Golden outputs: small real `ctool` runs whose outputs must keep their bytes.

Each case runs one experiment at small sizes, with two to five methods and
T = 20, and compares the sha256 of its ``results.csv``, of every
``plot_*.csv`` and of ``manifest.json`` (without ``wall_time_s`` and
``output_dir``, which differ between runs) with the digests recorded when the
case was added.  Two cases sit at the ends of the CDF methods' threshold
table: a calibration set too small for the level (thresholds +inf) and a
20-row tuning set (levels at m beside finite ones).  Every case that tunes a
CDF method on fewer than 500 rows carries under-tuned warnings in its
manifest.  The ntrain_sweep case averages three runs, where a median would
differ from the mean.  A
change that moves any printed number fails here; a change that alters output
on purpose updates the digest and says so.  The digests were recorded with
numpy 2.4 on x86-64; another numpy or BLAS build may legitimately print
different last digits.
"""

import hashlib
import json

import pytest

from mtconf.cli import main

SIZES = ("--trials", "20", "--ncal", "300", "--ntest", "200", "--threads", "1")

# name -> (INI text or None, flags, results.csv sha256)
CASES = {
    "table1": (
        None,
        ("--experiment", "table1", "--noise", "correlated", "--methods", "ia,qn,cqr_minimax",
         "--alphas", "0.2,0.1", "--ntrain", "400", "--ntune", "300", "--seed", "11"),
        "0a5fcd134a84881364f6c57ec6c4c6d3c16e9638fa544632ad0558d3c9d5be90",
    ),
    "coverage_sweep": (
        None,
        ("--experiment", "coverage_sweep", "--noise", "independent",
         "--methods", "cpts,qn_minimax,max_cqr", "--alphas", "0.3,0.05", "--ntrain", "400",
         "--ntune", "300", "--seed", "12"),
        "341c01e429dba86216cda71f00a2f97c07ad37ed61d081fc8243240b160eb088",
    ),
    "ntune_sweep": (
        "[experiment]\nntune_values = 50, 200\n",
        ("--experiment", "ntune_sweep", "--noise", "correlated", "--methods", "ia,cqr_minimax,cpts",
         "--runs", "2", "--ntrain", "300", "--seed", "13"),
        "4a370de2784d3f4415d1b2f4a69d2b0d16969c945641f8eb1c0ce8958fbbc6a9",
    ),
    "multiround": (
        "[rounds]\ntasks = 3\n",
        ("--experiment", "multiround", "--methods", "cqr_minimax,qn,cpts", "--alphas", "0.1,0.05",
         "--ntune", "300", "--seed", "14"),
        "df2ddf1affdb00a590f99f1de85d068b950299fc35da3929055b988d25884f3b",
    ),
    "multiround_labels": (
        "[experiment]\nlabel_values = 1, 2, 3\n",
        ("--experiment", "multiround_labels", "--methods", "cqr_minimax,ia", "--ntune", "300",
         "--seed", "15"),
        "42fddf2220572d7bc04f6775e5e68b36fa4b7d164ba2c4e6d24ab96c9634c57a",
    ),
    "starved_ncal": (
        None,
        ("--experiment", "table1", "--noise", "correlated",
         "--methods", "ia,qn,cpts,cqr_minimax,qn_minimax", "--alphas", "0.3,0.05",
         "--ntrain", "400", "--ntune", "300", "--seed", "16", "--ncal", "8"),
        "ea363379add056f579b73bf7abc8c65ea7fbbf34f6f9e8d338dd7f58e334c74e",
    ),
    "coarse_tuning": (
        None,
        ("--experiment", "table1", "--noise", "independent",
         "--methods", "cpts,cqr_minimax,qn_minimax", "--alphas", "0.3,0.1",
         "--ntrain", "400", "--ntune", "20", "--seed", "17"),
        "02ad5ba34e0ae1fcb3cdd1dc8ef58ea728440736764e6c79609f84478c6dd444",
    ),
    "ntrain_sweep": (
        "[experiment]\nntrain_values = 100, 400\n",
        ("--experiment", "ntrain_sweep", "--noise", "correlated", "--methods", "ia,cpts,qn_minimax",
         "--runs", "3", "--ntune", "200", "--seed", "18"),
        "65bc8adecef0df990eb9633cc67143410d9f069135163a9a261c6d3c57705b34",
    ),
}

# name -> {output file: sha256}, for every plot file and the manifest a case writes
VIEWS = {
    "table1": {
        "plot_ejc.csv": "e9090cb8dd3319b9610d3e69eddcc32634dc51286bab9ac280a3b5f528065ace",
        "plot_esc_extremes.csv": "675a7f041c447007719bc6a58c2dd1b12e940956aa3338f174be76cd18fd9c86",
        "plot_mil.csv": "9dd6360621099494360e2736ea3963a747ed9c714cf07cd46ec3136ab0387135",
        "manifest.json": "9cc632ec4b79bdf6cbe2d9c9bf1be46c1359a7437497697488256fcf98d98d35",
    },
    "coverage_sweep": {
        "plot_ejc.csv": "7eab2017b3bc80225ea423c6e24f0da4825e4265228e8ab000ce4b8f35ff81f8",
        "plot_esc_extremes.csv": "957dd4ef52d7a1e5ae397d54cb89ccebcbab86fc22358185c3eff425ffdd6d65",
        "plot_mil.csv": "defd88a9de9f3f701e40277ffc6e71670424177669787697d438db347da9bf59",
        "manifest.json": "efe8405484f2d54de433769409aceab37c4dba093531eab9106a9d70d5c88b5f",
    },
    "ntune_sweep": {
        "plot_esc_extremes.csv": "971e2d90849dc8536ac0857fc95c548d629e3c3054fdc0fe062dc46d2caf84f5",
        "manifest.json": "8f4a03f9d5146fa4cb60ef9120f3f71c4a7583a36f5711d8b730ae9696918cf9",
    },
    "multiround": {
        "plot_eac.csv": "0f6519ff60ae6e1eadcc4e4c98b47816ac7e766e8e2ce950a9680b1909ac7314",
        "plot_ravg.csv": "4f01398889224504d656046dc9baf6f63af79a1e8308ce989bbe7e20237b83ed",
        "manifest.json": "d938cf60e82c6438b33b00784fffcb28e3cc62bb831f92ae5ce1e80c912d6e65",
    },
    "multiround_labels": {
        "plot_eac.csv": "e53bdef2ab34fab5aa5ad6dab08de1249a8d3b0296e91ce05dd257b959395f56",
        "plot_ravg.csv": "6164b0e16d3353ce1e190d0dbb0ae8a9dc13ec5177f571dc11750caa046128bd",
        "manifest.json": "12ef480c9336296170c770fb0e25576a373bd1203f53c511fcd1c7d61d4498f9",
    },
    "starved_ncal": {
        "plot_ejc.csv": "044ae6dc8a4dc518ba58a488b189d486e73d9b21afa2afba90b8a2385fad6cc7",
        "plot_esc_extremes.csv": "1909ea43ae720c41a1a5c4d6a0263a26667134c2ae12268c816b6fc76df3ced1",
        "plot_mil.csv": "7d66aa9fccb72ae7153b87e912a7764d7524f1efd1d205e82ac5f17282ee1e89",
        "manifest.json": "5efcece4ee30fd417507ad95bbd0dd540ed3b2bfebbda2b9e1f1b8f178fdd2a8",
    },
    "coarse_tuning": {
        "plot_ejc.csv": "1e7e9b32a7d6101151875bdd734592c11646e04edb97a785a5b6e0d066535cce",
        "plot_esc_extremes.csv": "1d0919633d6cee244d3ff884bfbde90f12375646a482e872757abb0682b32b5e",
        "plot_mil.csv": "cfbe2804b7387614cebb997a749c4f228be064d4c9441c5b2e992cee0bc696d2",
        "manifest.json": "2b02df096c4c32be68a8d7b421429be7d008c91b5cc568dae5d4357d146b897a",
    },
    "ntrain_sweep": {
        "plot_esc_extremes.csv": "33edb6b462ce554aac7bedd1665ca9f2549538922992b9229a0f0842b399fc63",
        "manifest.json": "c797516e2ff812b523f49c62fc2fa029d3e5e327af47f86a5a0764168a50d2e6",
    },
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The output directory of each case, run once for the whole module."""
    done = {}

    def run(name):
        if name not in done:
            ini, flags, _ = CASES[name]
            root = tmp_path_factory.mktemp(name)
            args = ["run"]
            if ini is not None:
                (root / "run.ini").write_text(ini)
                args.append(str(root / "run.ini"))
            out = root / "out"
            assert main([*args, *SIZES, *flags, "--output-dir", str(out)]) == 0
            done[name] = out
        return done[name]

    return run


def view_digests(out):
    """sha256 of each plot file and of the manifest without its per-run fields."""
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("plot_*.csv")}
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["wall_time_s"], manifest["config"]["output_dir"]
    text = json.dumps(manifest, indent=2, sort_keys=True)
    digests["manifest.json"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", list(CASES))
def test_results_csv_keeps_its_golden_digest(name, outputs):
    got = hashlib.sha256((outputs(name) / "results.csv").read_bytes()).hexdigest()
    assert got == CASES[name][2], f"{name}: results.csv sha256 {got}"


@pytest.mark.parametrize("name", list(CASES))
def test_plot_files_and_manifest_keep_their_golden_digests(name, outputs):
    got = view_digests(outputs(name))
    assert got == VIEWS[name], f"{name}: {got}"
