"""Integration tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def run_cli(*argv):
    """Run the CLI in a fresh interpreter (true end-to-end contract)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture
def basket_file(tmp_path):
    path = tmp_path / "basket.dat"
    assert main(["generate", "basket", str(path), "--rows", "300",
                 "--seed", "1"]) == 0
    return path


@pytest.fixture
def agrawal_file(tmp_path):
    path = tmp_path / "credit.csv"
    assert main(["generate", "agrawal", str(path), "--rows", "600",
                 "--function", "2", "--seed", "2"]) == 0
    return path


@pytest.fixture
def blobs_file(tmp_path):
    path = tmp_path / "blobs.csv"
    assert main(["generate", "blobs", str(path), "--rows", "200",
                 "--centers", "3", "--seed", "3"]) == 0
    return path


class TestGenerate:
    def test_basket_file_loads(self, basket_file):
        from repro.datasets import load_transactions

        db = load_transactions(basket_file)
        assert len(db) == 300

    def test_agrawal_file_loads(self, agrawal_file):
        from repro.datasets import load_table

        table = load_table(agrawal_file)
        assert table.n_rows == 600
        assert "group" in table.attribute_names


class TestMine:
    def test_mine_reports_itemsets_and_rules(self, basket_file, capsys):
        assert main(["mine", str(basket_file), "--min-support", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "frequent itemsets" in out
        assert "rules at confidence" in out

    def test_all_miners_run(self, basket_file):
        for miner in ("apriori", "fp_growth", "eclat", "apriori_tid"):
            assert main(["mine", str(basket_file), "--miner", miner,
                         "--min-support", "0.05"]) == 0

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["mine", "/nonexistent/file.dat"]) == 2
        assert "error" in capsys.readouterr().err


class TestClassify:
    def test_c45_on_generated_table(self, agrawal_file, capsys):
        assert main(["classify", str(agrawal_file), "--target", "group"]) == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        assert "class 'A'" in out or "class 'B'" in out

    @pytest.mark.parametrize("clf", ["cart", "nb", "zeror"])
    def test_other_classifiers(self, agrawal_file, clf):
        assert main(["classify", str(agrawal_file), "--target", "group",
                     "--classifier", clf]) == 0

    def test_unknown_target_fails_cleanly(self, agrawal_file, capsys):
        assert main(["classify", str(agrawal_file), "--target", "nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestCluster:
    def test_kmeans(self, blobs_file, capsys):
        assert main(["cluster", str(blobs_file), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "clusters: 3" in out
        assert "silhouette" in out

    def test_dbscan(self, blobs_file, capsys):
        assert main(["cluster", str(blobs_file), "--algorithm", "dbscan",
                     "--eps", "1.5"]) == 0
        assert "SSE" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["pam", "birch", "agglomerative"])
    def test_other_algorithms(self, blobs_file, algo):
        assert main(["cluster", str(blobs_file), "--algorithm", algo,
                     "--k", "3", "--eps", "1.0"]) == 0


class TestBackendFlag:
    """``--backend`` selects a vectorized kernel, byte-identical output."""

    def test_mine_backend_output_identical(self, basket_file, capsys):
        base = ["mine", str(basket_file), "--miner", "apriori",
                "--min-support", "0.05"]
        assert main(base) == 0
        scalar = capsys.readouterr().out
        assert main(base + ["--backend", "bitmap"]) == 0
        assert capsys.readouterr().out == scalar

    def test_classify_backend_output_identical(self, agrawal_file, capsys):
        base = ["classify", str(agrawal_file), "--target", "group",
                "--classifier", "sliq"]
        assert main(base) == 0
        scalar = capsys.readouterr().out
        assert main(base + ["--backend", "columnar"]) == 0
        assert capsys.readouterr().out == scalar

    def test_cluster_backend_output_identical(self, blobs_file, capsys):
        base = ["cluster", str(blobs_file), "--k", "3", "--seed", "0"]
        assert main(base) == 0
        scalar = capsys.readouterr().out
        assert main(base + ["--backend", "elkan"]) == 0
        assert capsys.readouterr().out == scalar

    def test_backend_on_non_vectorizable_miner_is_usage_error(
            self, basket_file, capsys):
        assert main(["mine", str(basket_file), "--miner", "fp_growth",
                     "--backend", "bitset"]) == 2
        assert "does not support --backend" in capsys.readouterr().err

    def test_backend_on_non_vectorizable_clusterer_is_usage_error(
            self, blobs_file, capsys):
        assert main(["cluster", str(blobs_file), "--algorithm", "dbscan",
                     "--eps", "1.5", "--backend", "elkan"]) == 2
        assert "does not support --backend" in capsys.readouterr().err

    def test_unknown_backend_value_fails_cleanly(self, basket_file, capsys):
        assert main(["mine", str(basket_file), "--miner", "apriori",
                     "--backend", "warp"]) == 2
        err = capsys.readouterr().err
        assert "backend" in err
        assert "Traceback" not in err


class TestAlgorithms:
    def test_lists_every_registered_algorithm(self, capsys):
        from repro import registry

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "capabilities" in out
        for spec in registry.specs():
            assert spec.name in out

    def test_json_emits_the_machine_readable_table(self, capsys):
        import json

        from repro import registry

        assert main(["algorithms", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = {e["name"]: e for e in payload["algorithms"]}
        assert set(entries) == {s.name for s in registry.specs()}
        apriori = entries["apriori"]
        assert apriori["family"] == "associations"
        caps = apriori["capabilities"]
        assert caps["checkpointable"] is True
        assert caps["budget_resource"] == "candidates"
        assert isinstance(caps["degradation_policies"], list)
        assert caps["vectorizable"] is True
        assert entries["eclat"]["capabilities"]["vectorizable"] is False
        assert entries["sliq"]["capabilities"]["vectorizable"] is True

    def test_choices_come_from_the_registry(self):
        """The subcommand choices are the registry, not a literal list."""
        from repro import registry
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["mine", "x.dat", "--miner", registry.names("associations")[0]]
        )
        assert args.miner == "apriori"
        for family, flag, command in (
            ("associations", "--miner", "mine"),
            ("clustering", "--algorithm", "cluster"),
        ):
            for name in registry.names(family):
                assert parser.parse_args(
                    [command, "x", flag, name]
                ) is not None
        for name in registry.names("classification"):
            assert parser.parse_args(
                ["classify", "x", "--target", "t", "--classifier", name]
            ) is not None


class TestCheckpointCLI:
    def _itemset_lines(self, out):
        return [line for line in out.splitlines() if "->" in line or
                "support" in line]

    def test_mine_checkpoint_roundtrip(self, basket_file, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        assert main(["mine", str(basket_file), "--min-support", "0.05",
                     "--checkpoint-dir", str(ckdir)]) == 0
        first = capsys.readouterr().out
        assert list(ckdir.glob("*.ckpt"))
        assert main(["mine", str(basket_file), "--min-support", "0.05",
                     "--checkpoint-dir", str(ckdir), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert self._itemset_lines(resumed) == self._itemset_lines(first)

    def test_exhaust_then_resume_with_fresh_budget(self, basket_file,
                                                   tmp_path, capsys):
        """The walkthrough from the docs: a budget-limited run truncates
        (exit 0 + NOTE), the checkpoint survives, and a resumed run with
        a fresh budget completes with the full answer."""
        assert main(["mine", str(basket_file), "--min-support", "0.02"]) == 0
        full = capsys.readouterr().out
        ckdir = tmp_path / "ck"
        assert main(["mine", str(basket_file), "--min-support", "0.02",
                     "--checkpoint-dir", str(ckdir),
                     "--max-candidates", "30"]) == 0
        out = capsys.readouterr().out
        assert "NOTE: budget exhausted" in out
        assert list(ckdir.glob("*.ckpt"))
        assert main(["mine", str(basket_file), "--min-support", "0.02",
                     "--checkpoint-dir", str(ckdir), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "NOTE" not in resumed
        assert self._itemset_lines(resumed) == self._itemset_lines(full)

    @pytest.mark.parametrize("miner", ["eclat", "apriori_tid", "dhp",
                                       "partition"])
    def test_all_snapshottable_miners_roundtrip(self, basket_file, tmp_path,
                                                miner):
        ckdir = tmp_path / miner
        args = ["mine", str(basket_file), "--miner", miner,
                "--min-support", "0.05", "--checkpoint-dir", str(ckdir)]
        assert main(args) == 0
        assert main(args + ["--resume"]) == 0

    def test_resume_requires_checkpoint_dir(self, basket_file, capsys):
        assert main(["mine", str(basket_file), "--resume"]) == 2
        assert "checkpoint-dir" in capsys.readouterr().err

    def test_fp_growth_checkpoint_unsupported(self, basket_file, tmp_path,
                                              capsys):
        assert main(["mine", str(basket_file), "--miner", "fp_growth",
                     "--checkpoint-dir", str(tmp_path / "ck")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_mine_retries_flag(self, basket_file):
        assert main(["mine", str(basket_file), "--min-support", "0.05",
                     "--retries", "2"]) == 0

    def test_cluster_checkpoint_roundtrip(self, blobs_file, tmp_path,
                                          capsys):
        ckdir = tmp_path / "ck"
        base = ["cluster", str(blobs_file), "--k", "3", "--seed", "0",
                "--checkpoint-dir", str(ckdir)]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert list(ckdir.glob("*.ckpt"))
        assert main(base + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_cluster_pam_checkpoint(self, blobs_file, tmp_path):
        ckdir = tmp_path / "ck"
        base = ["cluster", str(blobs_file), "--algorithm", "pam",
                "--k", "3", "--checkpoint-dir", str(ckdir)]
        assert main(base) == 0
        assert main(base + ["--resume"]) == 0

    def test_cluster_checkpoint_unsupported_algorithm(self, blobs_file,
                                                      tmp_path, capsys):
        assert main(["cluster", str(blobs_file), "--algorithm", "birch",
                     "--checkpoint-dir", str(tmp_path / "ck")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_cluster_resume_requires_checkpoint_dir(self, blobs_file,
                                                    capsys):
        assert main(["cluster", str(blobs_file), "--resume"]) == 2
        assert "checkpoint-dir" in capsys.readouterr().err


class TestSupervisedCLI:
    """Round-trips for --supervise / --max-rss-mb / --hard-time-limit."""

    def test_supervised_mine_output_matches_unsupervised(self, basket_file,
                                                         capsys):
        base = ["mine", str(basket_file), "--min-support", "0.05"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--supervise"]) == 0
        assert capsys.readouterr().out == plain

    def test_supervised_mine_cleans_checkpoints(self, basket_file, tmp_path,
                                                capsys):
        ckdir = tmp_path / "ck"
        assert main(["mine", str(basket_file), "--min-support", "0.05",
                     "--supervise", "--retries", "2",
                     "--checkpoint-dir", str(ckdir)]) == 0
        # A completed supervised run leaves the checkpoint dir empty.
        assert not list(ckdir.glob("*.ckpt"))

    def test_supervised_classify(self, agrawal_file, capsys):
        assert main(["classify", str(agrawal_file), "--target", "group",
                     "--supervise"]) == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_supervised_cluster_output_matches_unsupervised(self, blobs_file,
                                                            capsys):
        base = ["cluster", str(blobs_file), "--k", "3", "--seed", "0"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--supervise"]) == 0
        assert capsys.readouterr().out == plain

    def test_clarans_is_exposed_and_supervisable(self, blobs_file, capsys):
        assert main(["cluster", str(blobs_file), "--algorithm", "clarans",
                     "--k", "3", "--seed", "0", "--supervise"]) == 0
        assert "clusters" in capsys.readouterr().out

    def test_rss_limit_exits_3_with_json_report(self, basket_file):
        # Runs in a fresh interpreter: forked from the in-process pytest
        # parent, the child could satisfy its allocations from freed
        # glibc arena space inherited at fork time and never trip
        # RLIMIT_AS, so the cap only binds reliably from a small parent.
        proc = run_cli("mine", str(basket_file), "--min-support", "0.02",
                       "--supervise", "--max-rss-mb", "8")
        assert proc.returncode == 3
        report = json.loads(proc.stderr.strip().splitlines()[-1])
        assert report["cause"] == "rss-limit"
        assert report["limits"]["max_rss_mb"] == 8
        assert "Traceback" not in proc.stderr

    def test_hard_time_limit_exits_3_with_json_report(self, basket_file,
                                                      capsys):
        assert main(["mine", str(basket_file), "--min-support", "0.01",
                     "--supervise", "--hard-time-limit", "0.2"]) == 3
        report = json.loads(
            capsys.readouterr().err.strip().splitlines()[-1]
        )
        assert report["cause"] == "wall-limit"

    def test_max_rss_requires_supervise(self, basket_file, capsys):
        assert main(["mine", str(basket_file), "--max-rss-mb", "100"]) == 2
        assert "--supervise" in capsys.readouterr().err

    def test_hard_time_limit_requires_supervise(self, blobs_file, capsys):
        assert main(["cluster", str(blobs_file),
                     "--hard-time-limit", "5"]) == 2
        assert "--supervise" in capsys.readouterr().err

    def test_supervise_rejects_non_checkpointable_miner(self, basket_file,
                                                        capsys):
        assert main(["mine", str(basket_file), "--miner", "fp_growth",
                     "--supervise"]) == 2
        err = capsys.readouterr().err
        assert "fp_growth" in err
        assert err.count("\n") == 1  # one-line message, not a traceback

    def test_supervise_rejects_non_checkpointable_clusterer(self, blobs_file,
                                                            capsys):
        assert main(["cluster", str(blobs_file), "--algorithm", "dbscan",
                     "--supervise"]) == 2
        assert "dbscan" in capsys.readouterr().err
