"""Golden outputs of the two edges: the ``repro`` CLI and the job server.

Both edges run the same parameter table and the same run path
(:mod:`repro.tasks`), so any change to what either prints or stores
must show here first.  The expected values were recorded once, before
the two edges shared that path; do not edit them.  A new behaviour gets
a new case.

* CLI cases run ``repro.cli.main`` in-process on small inputs made by
  ``repro generate`` and pin the exit code and the sha256 of stdout and
  of stderr, with the data directory's path replaced by ``<data>``.
  Warnings are silenced: their text carries source paths and line
  numbers.
* Server cases pin the sha256 of
  ``canonical_result_bytes(execute_job(...))``, the bytes a job stores.
* ``--help`` output depends on argparse's layout, which differs between
  Python versions, so those hashes are kept per version (recorded on
  3.11); the flag table they render is pinned for every version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import warnings

import pytest

from repro import registry
from repro.cli import build_parser, main
from repro.server.scheduler import canonical_result_bytes, execute_job


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for argv in (
        ["generate", "basket", str(root / "basket.dat"),
         "--rows", "300", "--seed", "1"],
        ["generate", "agrawal", str(root / "credit.csv"),
         "--rows", "300", "--function", "2", "--seed", "2"],
        ["generate", "blobs", str(root / "blobs.csv"),
         "--rows", "150", "--centers", "3", "--seed", "3"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    (root / "colors.csv").write_text("color:cat\nred\nblue\nred\n")
    return root


def _run_cli(argv, root):
    """(exit code, stdout sha256, stderr sha256) of one in-process run."""
    argv = [arg.format(data=root) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    text = [stream.getvalue().replace(str(root), "<data>")
            for stream in (out, err)]
    return [code, _sha(text[0]), _sha(text[1])]


BASKET = "{data}/basket.dat"
CREDIT = "{data}/credit.csv"
BLOBS = "{data}/blobs.csv"

CLI_CASES = {}
for _name in registry.names("associations"):
    CLI_CASES[f"mine-{_name}"] = ["mine", BASKET, "--miner", _name]
for _name in registry.names("classification"):
    CLI_CASES[f"classify-{_name}"] = [
        "classify", CREDIT, "--target", "group", "--classifier", _name]
for _name in registry.names("clustering"):
    CLI_CASES[f"cluster-{_name}"] = ["cluster", BLOBS, "--algorithm", _name]
CLI_CASES.update({
    "mine-low-support-top-3": ["mine", BASKET, "--min-support", "0.03",
                               "--min-confidence", "0.5", "--top", "3"],
    "classify-split": ["classify", CREDIT, "--target", "group",
                       "--test-fraction", "0.25", "--seed", "4"],
    "cluster-params": ["cluster", BLOBS, "--k", "4", "--seed", "2"],
    "cluster-dbscan-params": ["cluster", BLOBS, "--algorithm", "dbscan",
                              "--eps", "0.8", "--min-samples", "4"],
    "mine-jobs-2": ["mine", BASKET, "--jobs", "2"],
    "cluster-jobs-2": ["cluster", BLOBS, "--jobs", "2"],
    "mine-fp_growth-jobs-1": ["mine", BASKET, "--miner", "fp_growth",
                              "--jobs", "1"],
    "mine-backend-bitmap": ["mine", BASKET, "--backend", "bitmap"],
    "mine-partition-backend-bitset": ["mine", BASKET, "--miner", "partition",
                                      "--backend", "bitset"],
    "cluster-backend-elkan": ["cluster", BLOBS, "--backend", "elkan"],
    "mine-supervise": ["mine", BASKET, "--supervise"],
    "classify-supervise": ["classify", CREDIT, "--target", "group",
                           "--supervise"],
    "cluster-supervise": ["cluster", BLOBS, "--supervise"],
    "mine-fp_growth-supervise": ["mine", BASKET, "--miner", "fp_growth",
                                 "--supervise"],
    "cluster-dbscan-supervise": ["cluster", BLOBS, "--algorithm", "dbscan",
                                 "--supervise"],
    "classify-c45-budget": ["classify", CREDIT, "--target", "group",
                            "--max-candidates", "5"],
    "cluster-pam-budget": ["cluster", BLOBS, "--algorithm", "pam",
                           "--max-candidates", "3"],
    # Exit 2: the usage errors, then errors raised by a run.
    "usage-resume-without-dir": ["mine", BASKET, "--resume"],
    "usage-mine-checkpoint": ["mine", BASKET, "--miner", "fp_growth",
                              "--checkpoint-dir", "{data}/ck-fp"],
    "usage-cluster-checkpoint": ["cluster", BLOBS, "--algorithm", "birch",
                                 "--checkpoint-dir", "{data}/ck-birch"],
    "usage-mine-jobs": ["mine", BASKET, "--miner", "fp_growth",
                        "--jobs", "2"],
    "usage-cluster-jobs": ["cluster", BLOBS, "--algorithm", "dbscan",
                           "--jobs", "2"],
    "usage-mine-backend": ["mine", BASKET, "--miner", "fp_growth",
                           "--backend", "bitmap"],
    "usage-cluster-backend": ["cluster", BLOBS, "--algorithm", "dbscan",
                              "--backend", "elkan"],
    "usage-max-rss-without-supervise": ["mine", BASKET, "--max-rss-mb",
                                        "100"],
    "usage-hard-time-without-supervise": ["cluster", BLOBS,
                                          "--hard-time-limit", "5"],
    "usage-classify-time-limit": ["classify", CREDIT, "--target", "group",
                                  "--classifier", "nb", "--time-limit", "5"],
    "usage-classify-max-candidates": ["classify", CREDIT, "--target", "group",
                                      "--classifier", "knn",
                                      "--max-candidates", "5"],
    "error-no-numeric-columns": ["cluster", "{data}/colors.csv"],
    "error-missing-file": ["mine", "{data}/missing.dat"],
    "error-unknown-target": ["classify", CREDIT, "--target", "nope"],
    "algorithms": ["algorithms"],
    "algorithms-json": ["algorithms", "--json"],
})

#: exit code, sha256(stdout), sha256(stderr)
CLI_EXPECTED = {
    "algorithms": [
        0,
        "295e2db71576bf02d5fa619b4e1af1eb000a03fd665fba25e47e603dac06ed9a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "algorithms-json": [
        0,
        "0558f992fb36abbb739eb4b936f555e7b4fc13ba5f2d1bef6ba8ed9973f3c2a9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "budget-exhausted": [
        0,
        "1d585f76ba9a81f52f6a3a9a3a0d75b538b1e8dd99276f7189c6d435da65ad45",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-c45": [
        0,
        "07c2682f05d98fe671cba0c72c12af51cb02193e70567eee2794b2ed35774706",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-c45-budget": [
        0,
        "bc327d223b9091144384f4760ee92b933a24989dc341058d6eecacd3d43c3b2a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-cart": [
        0,
        "bd0a62c03b03ca60047374344075d69dd8e47094b1920d65a9c4c4df885116de",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-knn": [
        0,
        "d89271f33f079650fc888012605ba42e059ee3d565d33bd5c9849098b027a1a5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-nb": [
        0,
        "9e20594c6543c1422d9ebf3b3703e9c999c64ee26012566c35e8ad3886f4bd7f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-oner": [
        0,
        "d43e78a040f614d94a2586de652464544fc452378bb7a2791296eb48b0a23733",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-sliq": [
        0,
        "6be4ef91580526aeffd19214997be37fb6f36a38deb65f0ef9af94c22c1c40cd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-split": [
        0,
        "10d182f14b4728dcae60bbd25f0d27fd0ff1d13faef3b1d815437367cba10f5d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-supervise": [
        0,
        "07c2682f05d98fe671cba0c72c12af51cb02193e70567eee2794b2ed35774706",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "classify-zeror": [
        0,
        "bd12c1665f7616c1de0c0392064545568f271e8bcd40edea6e04964d641f3656",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-agglomerative": [
        0,
        "25b37ab04a684fe46941f75e724ff55f4664a6e1e028523c7a343fd13093af0b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-backend-elkan": [
        0,
        "2584196dcbaf2857876929025c33c1f1032fa6fd2c9e206bebb4e480ddb47f8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-birch": [
        0,
        "3381190ca64b8f3aa01c2c5f190cbc6547c9fc41ae1f02abd19cbc849aae6b05",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-clarans": [
        0,
        "579fb459e5adaf4e808704f574cd300d0e3444723f56c3e6fe7003dd63cabd97",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-dbscan": [
        0,
        "a639c1390354eda7f144486d9ad73748d124f52387b607b47b7288042d0bd7c2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-dbscan-params": [
        0,
        "5d021a3422bfbcb1fec403565d5ff83461394a351426d9cfef5ad94c83299710",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-dbscan-supervise": [
        0,
        "a639c1390354eda7f144486d9ad73748d124f52387b607b47b7288042d0bd7c2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-jobs-2": [
        0,
        "2584196dcbaf2857876929025c33c1f1032fa6fd2c9e206bebb4e480ddb47f8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-kmeans": [
        0,
        "2584196dcbaf2857876929025c33c1f1032fa6fd2c9e206bebb4e480ddb47f8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-pam": [
        0,
        "bd3773deafd5926c6f15b502329c059b6e5d6b2cb72a2c90ccfbd5258b4afb97",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-pam-budget": [
        0,
        "bd3773deafd5926c6f15b502329c059b6e5d6b2cb72a2c90ccfbd5258b4afb97",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-params": [
        0,
        "4a18e81f43fb8022e7bd8de9e11a4c539e4d1ae5805da013648631e0d39cf480",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster-supervise": [
        0,
        "2584196dcbaf2857876929025c33c1f1032fa6fd2c9e206bebb4e480ddb47f8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "error-missing-file": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0ade743b228a9f8bb4af2c50c0d1d344dbde48dcef3d93473dd80f737c282a07"],
    "error-no-numeric-columns": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "da61a49834aad543ea42d23d97bd8439a0ca948cc5c4818901e82f98b820e74c"],
    "error-unknown-target": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bdb055560b94e33e9c5b563eb3cb5b9482399d694b78597128eb594c1a961d4c"],
    "mine-apriori": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-apriori_tid": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-backend-bitmap": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-dhp": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-eclat": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-fp_growth": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-fp_growth-jobs-1": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-fp_growth-supervise": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-jobs-2": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-low-support-top-3": [
        0,
        "dbbfe4f3cec9817c22ba198c89621dcda6957308c4060eaabbb60031e3c1adf8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-partition": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-partition-backend-bitset": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine-supervise": [
        0,
        "3ef17bc87cc1a51cfedf27cddb3924b4c278105349e233c23625d3e587808dad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "resumed": [
        0,
        "584707db0ed1e2d6487ea14341462aeb25b0f8ac5f8cb88a65195d75d5551e2f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "usage-classify-max-candidates": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "842b27b0f07caaa2a05bcc4dd3a349ace71d1052e7e062705aab4375ec4b46fb"],
    "usage-classify-time-limit": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7424b97844181c8f94687e75ed9bab80eead504d33e58df6ae8e2727e52bb7b9"],
    "usage-cluster-backend": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "289bf8cffa83bdfcdeffe240d66581ce39b57464b9afb6f7333a921a0c22681d"],
    "usage-cluster-checkpoint": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ddf0825d5dbd2037d830862f66f499c1c0ef7476140cfea78ac310868c56c284"],
    "usage-cluster-jobs": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d92f97ad8df4bd9652804c19bb18e11c1adb0802d69458fb43b93ec5cc12dc17"],
    "usage-hard-time-without-supervise": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "634eb1b09475b2fb7f19f4bd7805d495f9040e398f8d957304d66ee6fa61e8ad"],
    "usage-max-rss-without-supervise": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8de7366297665678d2d3373e1482be60576dc8d9363510b2306409efdc950c3b"],
    "usage-mine-backend": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3e850bd573f6abb1727378d4ddba1c25e722455df0f76d2130ae67a78d8f6aca"],
    "usage-mine-checkpoint": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "21c297bb366cd752ad2bb877963862eb2c4d70b0d379ffb56d5260a8f0092a87"],
    "usage-mine-jobs": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d0a3fbc8b1126f333691f77bdd1e9fa1b975e7601d40d1c6fbbbc74c56d23b0a"],
    "usage-resume-without-dir": [
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d82c1b7aacb6e4e7cf3f7b2c753c50233e5a13b327e18851e44bf960deac919a"],
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output(case, data):
    assert _run_cli(CLI_CASES[case], data) == CLI_EXPECTED[case]


def test_exhaust_then_resume(data):
    first = ["mine", BASKET, "--min-support", "0.02",
             "--checkpoint-dir", "{data}/ck-resume", "--max-candidates", "50"]
    assert _run_cli(first, data) == CLI_EXPECTED["budget-exhausted"]
    assert _run_cli(first[:-2] + ["--resume"], data) \
        == CLI_EXPECTED["resumed"]


HELP_EXPECTED = {(3, 11): {
    "classify": [
        0,
        "21772e8368dd9ea046aed516280a99f1e2945ba6fa688c0e1d2f6a0d6b3a2bf3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "cluster": [
        0,
        "d868aa9b8d8c18ebcb513a046b630397c227ace3a37db414942db7f73f1e962d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "mine": [
        0,
        "3ccae7db11047a56cf4960ddcae2bce8ea035623583b583ac5e163fbc120a863",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
}}


@pytest.mark.parametrize("command", ["mine", "classify", "cluster"])
def test_help_text(command, data, monkeypatch):
    expected = HELP_EXPECTED.get(sys.version_info[:2])
    if expected is None:
        pytest.skip("--help hashes are recorded for Python 3.11 only")
    monkeypatch.setenv("COLUMNS", "80")
    assert _run_cli([command, "--help"], data) == expected[command]


def _flag_table(command):
    """What ``--help`` renders, independent of argparse's layout."""
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    return [[action.option_strings, action.metavar, action.help,
             getattr(action.type, "__name__", None),
             list(action.choices) if action.choices else None,
             bool(action.required)]
            for action in sub._actions]


FLAGS_EXPECTED = {
    "classify":
        "146370f63fee44723d107a66e143af8995c330cf95571101b98be78502e98e48",
    "cluster":
        "a2bfe5bbbe0518bc72b9dc48188fda24e1ad9594355feae317b9ae4b8e9914a7",
    "mine":
        "629a4ad4eee1c820cc09a7aa6c7abbd8eb359ca62b746f67fcaebdcd3e8a217a",
}


@pytest.mark.parametrize("command", ["mine", "classify", "cluster"])
def test_flag_table(command):
    table = json.dumps(_flag_table(command), sort_keys=True)
    assert _sha(table) == FLAGS_EXPECTED[command]


SERVER_CASES = {}
for _name in registry.names("associations"):
    SERVER_CASES[f"mine-{_name}"] = (
        "mine", "basket.dat", _name, {"min_support": 0.04})
    SERVER_CASES[f"mine-{_name}-rules"] = (
        "mine", "basket.dat", _name,
        {"min_support": 0.04, "min_confidence": 0.6})
for _name in registry.names("classification"):
    SERVER_CASES[f"classify-{_name}"] = (
        "classify", "credit.csv", _name, {"target": "group"})
for _name in registry.names("clustering"):
    SERVER_CASES[f"cluster-{_name}"] = ("cluster", "blobs.csv", _name, {})
SERVER_CASES.update({
    "mine-defaults": ("mine", "basket.dat", "apriori", {}),
    "mine-apriori-bitmap": ("mine", "basket.dat", "apriori",
                            {"min_support": 0.04, "backend": "bitmap"}),
    "mine-partition-bitset": ("mine", "basket.dat", "partition",
                              {"min_support": 0.04, "backend": "bitset"}),
    "mine-apriori-jobs-2": ("mine", "basket.dat", "apriori",
                            {"min_support": 0.04, "n_jobs": 2}),
    "classify-split": ("classify", "credit.csv", "cart",
                       {"target": "group", "test_fraction": 0.25,
                        "seed": 4}),
    "cluster-kmeans-params": ("cluster", "blobs.csv", "kmeans",
                              {"k": 4, "seed": 2}),
    "cluster-kmeans-elkan": ("cluster", "blobs.csv", "kmeans",
                             {"backend": "elkan"}),
    "cluster-kmeans-jobs-2": ("cluster", "blobs.csv", "kmeans",
                              {"n_jobs": 2}),
    "cluster-dbscan-params": ("cluster", "blobs.csv", "dbscan",
                              {"eps": 0.8, "min_samples": 4}),
})

#: sha256 of the canonical result bytes
SERVER_EXPECTED = {
    "classify-c45":
        "ac913e194327f740a25cfa82f6b66533edb63f931eab826ae89d42166733522a",
    "classify-cart":
        "24e905614d2b3a29612a61d4c7a3d2ced753f0a56177757cdfa6a9a0c28bbfaa",
    "classify-knn":
        "951d9c3fe106d864a942370ed32bda2944fb4f395a75de3bffd3067ae8654cf4",
    "classify-nb":
        "bf0167d5dfcd13dc845dfa270a64416e36e76974a9d5157fe353c43a36c9d6ac",
    "classify-oner":
        "8ce2524705a7c2b400c2253581d795e682e2f021017ce0f7fa01ebb435b0c057",
    "classify-sliq":
        "d10b606f9954178c58205af2578c0f28fc73c3b9423cdff2e5ab323cb8683ae1",
    "classify-split":
        "22e967d7b7ef6575fd9fd50bdc8960a5c269ab74b1f394623269d3b0fada19ba",
    "classify-zeror":
        "8efd6de84ba6138b099ce4057b0e8e06956a38ed82810a408bd61c7dc20b92b7",
    "cluster-agglomerative":
        "cde906c795c9ff6d6c93efe0f3fea3375c2a0fbaeccb83ded8fbbb23e442f8ff",
    "cluster-birch":
        "6ca5c8bbd9dee665e91bbe0e19a7086786087b15d31ffb2405b61614063d4f8c",
    "cluster-clarans":
        "8200942bb9920c0ddaa4c6db31dc404e016c955fa611e05f61e8a6ef007c6676",
    "cluster-dbscan":
        "ab5f9606100861e3bd57322e794623c01881022d944de61e02bf417fd0fd084d",
    "cluster-dbscan-params":
        "32e6b019ff398c1bc0ea2127b330edd33b702611d70012135ce9bab51639a17e",
    "cluster-kmeans":
        "a12652d3e869c55ce3999521817153b8dccaab91e6b2306c65294457052a88b7",
    "cluster-kmeans-elkan":
        "a12652d3e869c55ce3999521817153b8dccaab91e6b2306c65294457052a88b7",
    "cluster-kmeans-jobs-2":
        "a12652d3e869c55ce3999521817153b8dccaab91e6b2306c65294457052a88b7",
    "cluster-kmeans-params":
        "b00676c85f3e614360a769e06934bc9b7c6f27f653579922b21384e0ca2f4528",
    "cluster-pam":
        "494d4573b9c2f5e8380d05ccf56fe7155301d806340858e7cab7491dd60635c9",
    "mine-apriori":
        "da11d42034f503e9a078675dd73833e55cfc9d7e213d8f8361cf0f36b535fc32",
    "mine-apriori-bitmap":
        "da11d42034f503e9a078675dd73833e55cfc9d7e213d8f8361cf0f36b535fc32",
    "mine-apriori-jobs-2":
        "da11d42034f503e9a078675dd73833e55cfc9d7e213d8f8361cf0f36b535fc32",
    "mine-apriori-rules":
        "2d3c3b736098706a81cc952d70c656df1a45c09f137b40c9d891ed20cab8edf4",
    "mine-apriori_tid":
        "927645e120c8b42fdf57d42401a83df5bb9c360118bb9c500976240acacf55ef",
    "mine-apriori_tid-rules":
        "29c3ac82ac3b64fbf8c6d02396df71004dbe2f2bde543a77c68a20cacba58887",
    "mine-defaults":
        "ed5bc8fbc919226b42feb8b04394ebc28fb9be7953e5e8dac869ff8a2411dda4",
    "mine-dhp":
        "94020414a640e5f9e83f28f0a61a949c461eb326696c83f410f1d8e48e3cb6a4",
    "mine-dhp-rules":
        "81b429c5797865592ab39307316e1223c5056b24e931a96e8855a37c6530f9c5",
    "mine-eclat":
        "dad5de3e2b8dd20cdc7b0fe21cfe0634057e57044904d6425759bcf5798d6358",
    "mine-eclat-rules":
        "2c53fc9ab3f3a4079a2c0732c83d507165d895e189cd01d972ed1e1cc8bd80e6",
    "mine-fp_growth":
        "6f7f02a42641c1890c7939e4cc9f387db9e1ce937dd485d70322b4bee323d72b",
    "mine-fp_growth-rules":
        "2735c91b71c2f12fb889bef7567b835fa8771912989ca2b8f97704dbe15f654c",
    "mine-partition":
        "19877ba8fde6592641eea84b6de1c74ce111d547a9b298c8e49cbf10bccc5d42",
    "mine-partition-bitset":
        "19877ba8fde6592641eea84b6de1c74ce111d547a9b298c8e49cbf10bccc5d42",
    "mine-partition-rules":
        "dc24e22944f3652db774974dbba3268123dd3a2358900a1a21460b099b186c64",
}


@pytest.mark.parametrize("case", sorted(SERVER_CASES))
def test_job_result_bytes(case, data):
    kind, dataset, algorithm, params = SERVER_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        payload = execute_job(kind, str(data / dataset), algorithm, params)
    assert _sha(canonical_result_bytes(payload)) == SERVER_EXPECTED[case]
