"""Experiment harness: configs, runners, output determinism, and the CLI."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

import roughflow.harness as harness
from roughflow.cli import main
from roughflow.errors import GridError, HypothesisError
from roughflow.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
    run_flow_convergence,
    run_remainder_scan,
    run_stability,
    run_steady_check,
    run_wong_zakai,
)


def smoke_config(experiment, **overrides):
    """Small-but-honest sizes shared by the runner smoke tests."""
    base = dict(
        experiment=experiment,
        resolution=32,
        particles=48,
        hurst=0.5,
        meshes=(16, 32, 64),
        sigma=({"type": "constant", "value": (0.7, 0.0)},),
        w0_modes=((1, 0, 1.0),),
        seeds=(3,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tree_digest(root):
    acc = hashlib.sha256()
    for path in sorted(pathlib.Path(root).rglob("*")):
        if path.is_file():
            acc.update(path.name.encode())
            acc.update(path.read_bytes())
    return acc.hexdigest()


class TestExperimentConfig:
    def test_json_round_trip_is_bit_exact(self):
        config = smoke_config(
            "wong_zakai",
            sigma=({"type": "shear", "amplitude": 0.5, "wavenumber": 2, "axis": 1},
                   {"type": "constant", "value": (0.1, 0.3)}),
            w0_modes=((1, 0, 0.8), (0, 2, 0.25, 1.1)),
            tolerances={"max_inversions": 1, "rde_tolerance": 0.01},
        )
        text = config.to_json()
        again = ExperimentConfig.from_json(text)
        assert again == config
        assert again.to_json() == text
        assert again.config_hash == config.config_hash

    def test_lists_and_tuples_hash_identically(self):
        a = smoke_config("stability", meshes=[16, 32], seeds=[1, 2])
        b = smoke_config("stability", meshes=(16, 32), seeds=(1, 2))
        assert a == b
        assert a.config_hash == b.config_hash

    def test_unknown_experiment_rejected(self):
        with pytest.raises(HypothesisError, match="unknown experiment"):
            smoke_config("frobnicate")

    def test_unknown_config_key_rejected(self):
        with pytest.raises(GridError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "stability", "bogus": 1})

    @pytest.mark.parametrize("bad", [
        {"resolution": 4}, {"particles": 1}, {"horizon": 0.0},
        {"hurst": 0.75}, {"meshes": ()}, {"sigma": ()}, {"seeds": (-1,)},
    ])
    def test_out_of_range_fields_rejected(self, bad):
        with pytest.raises(HypothesisError):
            smoke_config("stability", **bad)

    def test_non_json_value_rejected(self):
        with pytest.raises(GridError, match="JSON"):
            smoke_config("stability", w0_modes=((1, 0, object()),))


class TestWongZakai:
    def test_distances_decrease_and_rde_converges(self):
        config = smoke_config(
            "wong_zakai",
            meshes=(16, 32, 64, 128),
            sigma=({"type": "shear", "amplitude": 0.5, "wavenumber": 1,
                    "axis": 0},),
            w0_modes=((1, 0, 0.8), (0, 1, 0.5, 0.7)),
            tolerances={"rde_tolerance": 0.05},
        )
        result = run_wong_zakai(config)
        assert result.passed
        rows = result.table()[1]
        finest = [row["distance_to_finest"] for row in rows[:-1]]
        assert finest[-1] < finest[0]
        assert rows[-1]["distance_to_finest"] == 0.0
        # H = 1/2 appends the scalar multiplicative sub-test
        rde = result.tables["scalar_rde"][1]
        assert rde[-1]["error"] <= rde[0]["error"]

    def test_rough_hurst_skips_scalar_subtest(self):
        config = smoke_config(
            "wong_zakai", hurst=0.4, meshes=(32, 64, 128),
            sigma=({"type": "constant", "value": (0.35, 0.0)},),
            w0_modes=((1, 0, 0.8),),
        )
        result = run_wong_zakai(config)
        assert "scalar_rde" not in result.tables
        assert "rde_error" not in result.measured

    def test_non_nested_meshes_rejected(self):
        config = smoke_config("wong_zakai", meshes=(16, 24, 48))
        with pytest.raises(GridError, match="nested"):
            run_wong_zakai(config)

    def test_needs_three_meshes(self):
        config = smoke_config("wong_zakai", meshes=(16, 32))
        with pytest.raises(HypothesisError, match="three"):
            run_wong_zakai(config)

    def test_wrong_experiment_name_rejected(self):
        with pytest.raises(HypothesisError, match="wong_zakai"):
            run_wong_zakai(smoke_config("stability"))


class TestStability:
    def test_zero_perturbation_reproduces_exactly(self):
        config = smoke_config(
            "stability", hurst=0.45, meshes=(16,),
            tolerances={"perturbation_sizes": (0.2, 0.1),
                        "perturbation_kinds": ("w0", "driver")},
        )
        result = run_stability(config)
        assert result.passed
        rows = result.table()[1]
        assert rows[0]["kind"] == "none"
        assert rows[0]["distance"] == 0.0
        assert rows[0]["particle_sup"] == 0.0

    def test_distances_shrink_with_perturbation(self):
        # mesh 32: the σ-bump raises ‖σ‖_C² and mesh 16 steps would leave
        # the Davie small-threshold regime
        config = smoke_config(
            "stability", hurst=0.45, meshes=(32,),
            tolerances={"perturbation_sizes": (0.2, 0.1, 0.05)},
        )
        result = run_stability(config)
        assert result.passed
        by_kind = {}
        for row in result.table()[1][1:]:
            by_kind.setdefault(row["kind"], []).append(row["distance"])
        assert set(by_kind) == {"w0", "sigma", "driver"}
        for distances in by_kind.values():
            assert distances == sorted(distances, reverse=True)
            assert distances[-1] > 0.0

    def test_unknown_perturbation_kind_rejected(self):
        config = smoke_config(
            "stability", tolerances={"perturbation_kinds": ("viscosity",)})
        with pytest.raises(HypothesisError, match="admissible class"):
            run_stability(config)


class TestSteadyCheck:
    def test_shear_steady_state_holds(self):
        # the honest drift floor at N=32 is ≈1.8e-3 (grid-interpolation
        # bound, independent of particle count); the desk scale N=64/256²
        # sits below the 1e-3 default — see the acceptance suite
        config = smoke_config(
            "steady_check", particles=96,
            tolerances={"n_steps": 8, "l1_tolerance": 2.5e-3},
        )
        result = run_steady_check(config)
        assert result.passed
        assert result.measured["worst_drift"] <= 2.5e-3
        times = [row["time"] for row in result.table()[1]]
        assert times == sorted(times) and times[-1] == config.horizon

    def test_tight_tolerance_fails_honestly(self):
        config = smoke_config(
            "steady_check", particles=48,
            tolerances={"n_steps": 4, "l1_tolerance": 1e-12},
        )
        result = run_steady_check(config)
        assert not result.passed
        assert result.measured["worst_drift"] > 1e-12


class TestRemainderScan:
    def test_scan_passes_and_reruns_bit_identical(self, tmp_path):
        config = smoke_config("remainder_scan", meshes=(64, 128))
        first = run_remainder_scan(config, out_dir=tmp_path / "a")
        second = run_remainder_scan(config, out_dir=tmp_path / "b")
        assert first.passed
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
        slope_target = first.measured["slope_target"]
        for row in first.table()[1]:
            assert abs(row["scaling_slope"] - slope_target) <= 0.3
            assert row["additivity_defect"] <= 1e-10

    def test_meta_records_config_hash_and_flag(self, tmp_path):
        config = smoke_config("remainder_scan", meshes=(64, 128))
        result = run_remainder_scan(config, out_dir=tmp_path)
        meta = json.loads((tmp_path / "remainder_scan" / "meta.json").read_text())
        assert meta["config_hash"] == config.config_hash
        assert meta["passed"] == result.passed
        assert meta["config"] == config.to_dict()
        assert (tmp_path / "remainder_scan" / "mesh_00064" /
                "final_field.csv").exists()

    def test_non_nested_step_meshes_rejected(self):
        config = smoke_config("remainder_scan", meshes=(64, 96))
        with pytest.raises(GridError, match="nested"):
            run_remainder_scan(config)


class TestFlowConvergence:
    def test_bound_dominates_measured_distance(self):
        config = smoke_config(
            "flow_convergence", particles=32, hurst=0.45, meshes=(32,),
            sigma=({"type": "shear", "amplitude": 0.4, "wavenumber": 1,
                    "axis": 1},),
            w0_modes=((1, 0, 0.8),),
            tolerances={"perturbation_sizes": (0.1, 0.05)},
        )
        result = run_flow_convergence(config)
        assert result.passed
        rows = result.table()[1]
        assert rows[0]["case"] == "identical" and rows[0]["left"] == 0.0
        for row in rows[1:]:
            assert 0.0 < row["left"] <= row["right"]
        assert result.measured["max_ratio_vs_unit_constant"] <= 1.0

    def test_base_flow_solved_once_and_bound_once_per_pair(self, monkeypatch):
        sizes = (0.1, 0.05, 0.02)
        config = smoke_config("flow_convergence", particles=16, meshes=(16,),
                              tolerances={"perturbation_sizes": sizes})
        solves, bounds = [], []
        real_solve = harness.solve_flow
        real_bound = harness.lagrangian_stability_bound

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return real_solve(*args, **kwargs)

        def recording_bound(*args, **kwargs):
            bounds.append((args, kwargs))
            return real_bound(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_flow", counting_solve)
        monkeypatch.setattr(harness, "lagrangian_stability_bound", recording_bound)
        rows = run_flow_convergence(config).table()[1]
        assert len(solves) == 2 + 2 * len(sizes)
        assert len(bounds) == 1 + 2 * len(sizes) == len(rows)
        # every cell is bit for bit what a per-pair evaluation with the
        # library constant gives on the same two trajectories
        for row, (args, kwargs) in zip(rows, bounds):
            _, pos1, pos2 = args[:3]
            delta = (pos1 - pos2 + np.pi) % (2 * np.pi) - np.pi
            assert row["left"] == float(np.sqrt((delta ** 2).sum(axis=-1)).max())
            kwargs.pop("constant")
            assert row["right"] == real_bound(*args, **kwargs)


class TestDispatch:
    def test_run_experiment_routes_every_name(self):
        assert set(EXPERIMENTS) == {
            "wong_zakai", "stability", "steady_check", "remainder_scan",
            "flow_convergence"}
        config = smoke_config("steady_check",
                              tolerances={"n_steps": 4, "l1_tolerance": 0.1})
        assert run_experiment(config).experiment == "steady_check"

    def test_seed_override_changes_the_draw(self):
        config = smoke_config("remainder_scan", meshes=(64, 128))
        a = run_remainder_scan(config, seed=3)
        b = run_remainder_scan(config, seed=4)
        assert a.seed == 3 and b.seed == 4
        assert (a.table()[1][0]["variation_norm"]
                != b.table()[1][0]["variation_norm"])


class TestCli:
    def write_config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        return str(path)

    def test_experiment_pass_exits_zero(self, tmp_path, capsys):
        config = smoke_config("remainder_scan", meshes=(64, 128),
                              output_dir=str(tmp_path / "out"))
        rc = main(["remainder_scan", "--config",
                   self.write_config(tmp_path, config)])
        assert rc == 0
        assert "remainder_scan: PASS" in capsys.readouterr().out
        assert (tmp_path / "out" / "remainder_scan" / "meta.json").exists()

    def test_experiment_fail_exits_two(self, tmp_path, capsys):
        config = smoke_config(
            "steady_check", particles=48,
            tolerances={"n_steps": 4, "l1_tolerance": 1e-12},
            output_dir=str(tmp_path / "out"))
        rc = main(["steady_check", "--config",
                   self.write_config(tmp_path, config)])
        assert rc == 2
        assert "steady_check: FAIL" in capsys.readouterr().out

    def test_config_subcommand_mismatch_exits_one(self, tmp_path, capsys):
        config = smoke_config("stability")
        rc = main(["steady_check", "--config",
                   self.write_config(tmp_path, config)])
        assert rc == 1
        assert "describes 'stability'" in capsys.readouterr().err

    def test_out_flag_overrides_config_dir(self, tmp_path):
        config = smoke_config("steady_check",
                              tolerances={"n_steps": 4, "l1_tolerance": 0.1},
                              output_dir=str(tmp_path / "ignored"))
        rc = main(["steady_check", "--config",
                   self.write_config(tmp_path, config),
                   "--out", str(tmp_path / "chosen")])
        assert rc == 0
        assert (tmp_path / "chosen" / "steady_check" / "table.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def pvar_series(self, tmp_path, two_columns=True):
        rng = np.random.default_rng(0)
        z = np.r_[0.0, np.cumsum(rng.normal(0.0, 0.1, 64))]
        t = np.linspace(0.0, 1.0, z.size)
        path = tmp_path / "series.csv"
        with open(path, "w") as handle:
            handle.write("t,z\n" if two_columns else "z\n")
            for a, b in zip(t, z):
                handle.write(f"{a:.17g},{b:.17g}\n" if two_columns
                             else f"{b:.17g}\n")
        return str(path), t, z

    def test_pvar_matches_library_and_emits_partition(self, tmp_path, capsys):
        from roughflow.variation import p_variation

        path, _, z = self.pvar_series(tmp_path)
        rc = main(["pvar", path, "--p", "2.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        expected, partition = p_variation(z, 2.5, return_partition=True)
        assert payload["value"] == pytest.approx(expected, rel=1e-12)
        assert payload["argmax_partition"] == list(partition)
        assert payload["argmax_partition"][0] == 0
        assert payload["argmax_partition"][-1] == z.size - 1

    def test_pvar_localized_never_exceeds_plain(self, tmp_path, capsys):
        path, _, _ = self.pvar_series(tmp_path)
        rc = main(["pvar", path, "--p", "2.5"])
        plain = json.loads(capsys.readouterr().out)["value"]
        rc2 = main(["pvar", path, "--p", "2.5",
                    "--localize", "power:1", "--L", "0.25"])
        localized = json.loads(capsys.readouterr().out)["value"]
        assert rc == 0 and rc2 == 0
        assert localized <= plain + 1e-12

    def test_pvar_single_column_uses_unit_spacing(self, tmp_path, capsys):
        from roughflow.variation import p_variation

        path, _, z = self.pvar_series(tmp_path, two_columns=False)
        rc = main(["pvar", path, "--p", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(p_variation(z, 3.0), rel=1e-12)

    @pytest.mark.parametrize("argv_tail", [
        ["--localize", "power:1"],                 # --localize without --L
        ["--localize", "bogus:2", "--L", "1.0"],   # unknown control kind
        ["--localize", "power:x", "--L", "1.0"],   # non-numeric field
    ])
    def test_pvar_bad_flags_exit_one(self, tmp_path, capsys, argv_tail):
        path, _, _ = self.pvar_series(tmp_path)
        assert main(["pvar", path] + argv_tail) == 1
        assert "error" in capsys.readouterr().err

    def test_pvar_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["pvar", str(tmp_path / "absent.csv")]) == 1
        capsys.readouterr()

    def test_pvar_ragged_rows_rejected(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("t,z\n0,1\n0.5,2,3\n")
        assert main(["pvar", str(path)]) == 1
        assert "column counts" in capsys.readouterr().err
