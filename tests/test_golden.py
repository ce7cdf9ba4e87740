"""Golden outputs: small real `ctool` runs whose results.csv must keep its bytes.

Each case runs one experiment at small sizes, with two or three methods and
T = 20, and compares the sha256 of its ``results.csv`` with the digest
recorded when the case was added.  A change that moves any printed number
fails here; a change that alters output on purpose updates the digest and
says so.  The digests were recorded with numpy 2.4 on x86-64; another numpy
or BLAS build may legitimately print different last digits.
"""

import hashlib

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
}


@pytest.mark.parametrize("name", list(CASES))
def test_results_csv_keeps_its_golden_digest(name, tmp_path):
    ini, flags, want = CASES[name]
    args = ["run"]
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        args.append(str(tmp_path / "run.ini"))
    out = tmp_path / "out"
    assert main([*args, *flags, *SIZES, "--output-dir", str(out)]) == 0
    got = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert got == want, f"{name}: results.csv sha256 {got}"
