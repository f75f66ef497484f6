import re
from fractions import Fraction
from pathlib import Path

import pytest

from structhunt.cli import main
from structhunt.fileio import (dump_decomposition, dump_matching, dump_params,
                               dump_split, dump_witness, load_instance_dir,
                               parse_decomposition, parse_matching,
                               parse_params, parse_split, parse_witness)
from structhunt.graphcore import dump_graph, load_graph


def write_graph(tmp_path, text):
    p = tmp_path / "g.txt"
    p.write_text(text)
    return str(p)


K44 = "n 8\nlayer G\n" + "\n".join("%d %d" % (u, v)
                                   for u in range(4) for v in range(4, 8)) + "\n"


class TestShadowCmd:
    def test_star(self, tmp_path, capsys):
        path = write_graph(tmp_path, "n 4\nlayer G\n0 1\n0 2\n0 3\n")
        rc = main(["shadow", "--graph", path, "--set", "1,2,3", "--ell", "2"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0"


class TestInputErrors:
    """Bad input ends in one line on stderr and exit code 1."""

    def _one_line_error(self, capsys, argv, *needles):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("structhunt: error: ")
        for needle in needles:
            assert needle in captured.err

    def test_bad_graph_file(self, tmp_path, capsys):
        path = write_graph(tmp_path, "n 3\nlayer G\n0 1\n2 2\n")
        self._one_line_error(capsys, ["shadow", "--graph", path, "--set", "0,1",
                                      "--ell", "1"], path, "line 4: self-loop 2 2")

    @pytest.mark.parametrize("spec", ["G_nope", "G+", "", "G++G"])
    def test_bad_layer_spec(self, tmp_path, capsys, spec):
        path = write_graph(tmp_path, K44)
        for argv in (["shadow", "--graph", path, "--set", "0,1", "--ell", "1"],
                     ["check-regular", "--graph", path, "-U", "0", "-W", "4",
                      "--eps", "1/4"],
                     ["find-spots", "--graph", path, "-m", "1", "--gamma", "1/2"],
                     ["clean", "envelope", "--graph", path, "--sets", "0,1/4,5",
                      "--k", "1"]):
            self._one_line_error(capsys, argv + ["--layer", spec], repr(spec))

    def test_bad_layers_entry(self, tmp_path, capsys):
        path = write_graph(tmp_path, K44)
        self._one_line_error(capsys, ["clean", "yellow", "--graph", path,
                                      "--layers", "G,G_nope", "--sets", "0/4/5",
                                      "--k", "1"], "'G_nope'")

    @pytest.mark.parametrize("q, error", [
        ("1/2,abc", "--q: bad fraction 'abc'"),
        ("2/3,2/3", "--q: fractions sum to 4/3 > 1"),
        ("-1/2,3/2", "--q: negative fraction"),
        ("0,0", "--q: all fractions zero with non-empty target"),
        ("1/0", "--q: zero denominator in '1/0'")])
    def test_bad_split_fractions(self, tmp_path, capsys, q, error):
        path = write_graph(tmp_path, K44)
        self._one_line_error(capsys, ["split", "--graph", path, "--q=" + q],
                             "structhunt: error: " + error)

    @pytest.mark.parametrize("argv, error", [
        (["cblack", "--sets", "0/4", "--clusters", "4,x"], "--clusters: bad integer 'x'"),
        (["cblack", "--sets", "0/4", "--clusters", "4/5,99"],
         "--clusters: vertex id 99 out of range"),
        (["envelope", "--sets", "0/4", "--k", "abc"], "--k: bad fraction 'abc'"),
        (["envelope", "--sets", "0/4", "--psi", "1/0"], "--psi: zero denominator in '1/0'"),
        (["match", "--layers", "G,G", "--sets", "0/4/5", "--partitions", "0|5"],
         "clean match: partition pair 0 leaves X_0/X_1"),
        (["match", "--layers", "G,G", "--sets", "0/4/5", "--partitions", "0"],
         "--partitions: bad pair '0', want A|B"),
        (["match", "--layers", "G,G", "--sets", "0/4/5", "--partitions", "0|4,y"],
         "--partitions: bad integer 'y'"),
        (["cyellow", "--sets", "0"], "--sets: cyellow takes 2 or more sets, got 1"),
        (["cblack", "--sets", "0/4/5"], "--sets: cblack takes 2 sets, got 3"),
        (["yellow", "--sets", "0/4/5"], "--layers: yellow takes 2 or more layers"),
        (["yellow", "--layers", "G,G", "--sets", "0/4"], "--sets: yellow takes 3 sets, got 2"),
        (["envelope", "--sets", "0/1,9"], "--sets: vertex id 9 out of range"),
        (["envelope", "--sets", "0/4,a"], "--sets: bad integer 'a'"),
        (["envelope", "--sets", "0/4", "--Y", "-1"], "--Y: vertex id -1 out of range"),
        (["envelope", "--sets", "0,4/4"], "clean envelope: P and Q overlap"),
        (["envelope", "--sets", "0/4", "--psi", "0"],
         "--psi: must not be 0, clean envelope divides by it"),
        (["envelope", "--sets", "0/4", "--Gamma", "0/3"],
         "--Gamma: must not be 0, clean envelope divides by it"),
        (["cyellow", "--sets", "0/4", "--gamma", "0"],
         "--gamma: must not be 0, clean cyellow divides by it"),
        (["cyellow", "--sets", "0/4", "--Omega", "0"],
         "--Omega: must not be 0, clean cyellow divides by it"),
        (["cblack", "--sets", "0/4", "--Omega", "0"],
         "--Omega: must not be 0, clean cblack divides by it"),
        (["yellow", "--layers", "G,G", "--sets", "0/4/5", "--gamma", "0"],
         "--gamma: must not be 0, clean yellow divides by it"),
        (["match", "--layers", "G,G", "--sets", "0/4/5", "--partitions", "0|4",
          "--gamma", "0"], "--gamma: must not be 0, clean match divides by it")])
    def test_bad_clean_input(self, tmp_path, capsys, argv, error):
        path = write_graph(tmp_path, K44)
        op, *rest = argv
        k = [] if "--k" in rest else ["--k", "1"]
        self._one_line_error(capsys, ["clean", op, "--graph", path] + rest + k,
                             "structhunt: error: " + error)

    @pytest.mark.parametrize("argv, error", [
        (["shadow", "--set", "0,8", "--ell", "1"], "--set: vertex id 8 out of range"),
        (["shadow", "--set", "0", "--ell", "x"], "--ell: bad fraction 'x'"),
        (["check-regular", "-U", "0", "-W", "-4", "--eps", "1/4"],
         "-W: vertex id -4 out of range"),
        (["check-regular", "-U", "0", "-W", "4", "--eps", "1/0"],
         "--eps: zero denominator in '1/0'"),
        (["shadow", "--set", "1_0", "--ell", "1"], "--set: bad integer '1_0'"),
        (["shadow", "--set", "0,+2", "--ell", "1"], "--set: bad integer '+2'")])
    def test_bad_vertex_set_or_fraction(self, tmp_path, capsys, argv, error):
        path = write_graph(tmp_path, K44)
        self._one_line_error(capsys, argv[:1] + ["--graph", path] + argv[1:],
                             "structhunt: error: " + error)

    def test_bad_graph_in_instance_dir(self, tmp_path, capsys):
        (tmp_path / "graph.txt").write_text("n 2\nlayer G\n0 5\n")
        self._one_line_error(capsys, ["hunt-config", str(tmp_path)],
                             "graph.txt", "line 3: vertex id out of range")

    @pytest.mark.parametrize("lines, error", [
        ("section H\n99999", "line +1: vertex id 99999 out of range"),
        ("section E\n3 -1", "line +1: vertex id -1 out of range"),
        ("section cluster\n0 x", "line +1: bad integer 'x'"),
        ("spot: U=0 W=1 F=0-1,3-3", "line +0: spot edge '3-3' is a self-loop"),
        ("spot: U=0 W=1 F=0-1,3", "line +0: bad spot edge '3', want a-b"),
        ("spot: U=0 W=1 F=0-1-2", "line +0: bad spot edge '0-1-2', want a-b"),
        ("spot: U=0,99999 W=1 F=0-1", "line +0: vertex id 99999 out of range"),
        ("spot: U=0 W=1 F=0-99999", "line +0: vertex id 99999 out of range"),
        ("spot: U=0 W=12 F=0-12", "line +0: spot edge 0-12 is not an edge of G"),
        ("spot: U=0 F=0-1", "line +0: spot line without W="),
        ("spot: U=0 W=1 F", "line +0: bad spot field 'F', want key=value")])
    def test_bad_decomposition_line(self, tmp_path, capsys, lines, error):
        """Every id and spot edge of decomposition.txt is checked against the
        graph, and a bad one names its line (the +k counts from the first
        added line)."""
        d, _, _ = make_instance_dir(tmp_path)
        self._check_added_lines(capsys, d, "decomposition.txt", lines, error)

    @pytest.mark.parametrize("name, lines, error", [
        ("params.txt", "kk 3", "line +0: unknown parameter 'kk'"),
        ("params.txt", "k x", "line +0: bad integer 'x'"),
        ("params.txt", "eta 1/0", "line +0: bad number '1/0'"),
        ("params.txt", "eta", "line +0: parameter eta without a value"),
        ("params.txt", "eta -1", "line 0: parameter eta must be positive"),
        ("matching_a.txt", "eps 1/2\n0 1 | 2 x", "line +1: bad integer 'x'"),
        ("matching_a.txt", "ell", "line +0: ell without a value"),
        ("matching_a.txt", "0 1 2", "line +0: want a header or a pair line"),
        ("split.txt", "0 99", "line +0: class 99 of vertex 0, but 10 fractions"),
        ("split.txt", "0 -1", "line +0: class -1 of vertex 0, but 10 fractions"),
        ("split.txt", "0", "line +0: want 'v class', got '0'"),
        ("split.txt", "fractions 1/3 y", "line +0: bad number 'y'")])
    def test_bad_instance_file_line(self, tmp_path, capsys, name, lines, error):
        d, _, _ = make_instance_dir(tmp_path)
        self._check_added_lines(capsys, d, name, lines, error)

    @pytest.mark.parametrize("name, text, error", [
        ("params.txt", "eta 1/2\n", "line 0: missing parameter k"),
        ("split.txt", "0 1\n", "line 0: split file missing 'fractions' header")])
    def test_bad_instance_file(self, tmp_path, capsys, name, text, error):
        d, _, _ = make_instance_dir(tmp_path)
        (d / name).write_text(text)
        self._one_line_error(capsys, ["hunt-config", str(d)], str(d / name), error)

    @pytest.mark.parametrize("lines, error", [
        ("config D1\nA = 0\nF = 1-x", "line 3: bad witness edge '1-x', want a-b"),
        ("config D1\nbogus line", "line 2: want 'field = value', got 'bogus line'"),
        ("config D1\nF = 0-2,1-99999", "line 2: vertex id 99999 out of range"),
        ("config D1\nF = 0-1,3-3", "line 2: witness edge '3-3' is a self-loop"),
        ("config D1\nF = 0-1,-1-2", "line 2: bad witness edge '-1-2', want a-b"),
        ("config D6\nA = 0,x", "line 2: bad integer 'x'"),
        ("config D6\nQ = 1", "line 2: unknown witness field 'Q'"),
        ("config D6\n\n# note\npairs = 0|1|2", "line 4: bad pair '0|1|2', want ids|ids"),
        ("config D6\nN = 0|1 @ eps", "line 2: bad matching parameter 'eps'"),
        ("config D6\nN = 0|1 @ eps=1/0", "line 2: bad number '1/0'"),
        ("config D6\nheart = one", "line 2: bad integer 'one'"),
        ("config D6\nparam nope = 1", "line 2: unknown parameter 'nope'"),
        ("config D6\nparam beta = 2 * 3^(1/x)", "line 2: bad parameter value"),
        ("config D11", "line 1: unknown witness tag 'D11'"),
        ("A = 0", "line 0: witness file missing 'config <tag>' line")])
    def test_bad_witness_file(self, tmp_path, capsys, lines, error):
        d, _, _ = make_instance_dir(tmp_path)
        witness = tmp_path / "witness.txt"
        witness.write_text(lines + "\n")
        self._one_line_error(capsys, ["verify-witness", str(d), str(witness)],
                             "structhunt: error: %s: %s" % (witness, error))

    @pytest.mark.parametrize("lines, field", [
        ("config D1\nF = 0-1", "witness D1 missing field 'A'"),
        ("config D2", "witness D2 missing field 'L2'"),
        ("config D10\nA = 0\nB = 1", "witness D10 missing field 'Gt_edges'")])
    def test_witness_missing_field(self, tmp_path, capsys, lines, field):
        d, _, _ = make_instance_dir(tmp_path)
        witness = tmp_path / "witness.txt"
        witness.write_text(lines + "\n")
        self._one_line_error(capsys, ["verify-witness", str(d), str(witness)],
                             "structhunt: error: %s: %s\n" % (witness, field))

    def test_matching_ids_checked_against_graph(self, tmp_path, capsys):
        d, b, _ = make_instance_dir(tmp_path)
        (d / "matching_a.txt").write_text("eps 1/2\n0 1 | 2 99999\n")
        for argv in (["hunt-config", str(d)],
                     ["verify-witness", str(d), str(d / "missing.txt")]):
            self._one_line_error(capsys, argv, "%s: line 2: vertex id 99999 out "
                                 "of range" % (d / "matching_a.txt"))

    def _check_added_lines(self, capsys, d, name, lines, error):
        """Append lines to a file of instance d; hunt-config and
        verify-witness then end with error, "+k" resolved to a line number."""
        path = d / name
        text = path.read_text() if path.exists() else ""
        path.write_text(text + lines + "\n")
        first = len(text.splitlines()) + 1
        error = re.sub(r"\+(\d+)", lambda m: str(first + int(m.group(1))), error)
        for argv in (["hunt-config", str(d)],
                     ["verify-witness", str(d), str(d / "missing.txt")]):
            self._one_line_error(capsys, argv, str(path) + ": " + error)


class TestSplitCmd:
    def test_deterministic_dump(self, tmp_path, capsys):
        path = write_graph(tmp_path, K44)
        rc = main(["split", "--graph", path, "--q", "0.5,0.5", "--seed", "7"])
        out1 = capsys.readouterr().out
        main(["split", "--graph", path, "--q", "0.5,0.5", "--seed", "7"])
        assert capsys.readouterr().out == out1
        assert rc == 0
        assert out1.startswith("fractions 1/2 1/2")


class TestCheckRegularCmd:
    def test_complete_pair(self, tmp_path, capsys):
        path = write_graph(tmp_path, K44)
        rc = main(["check-regular", "--graph", path, "-U", "0,1,2,3",
                   "-W", "4,5,6,7", "--eps", "1/4"])
        assert rc == 0
        assert "exact-regular" in capsys.readouterr().out

    def test_matching_pair_irregular(self, tmp_path, capsys):
        path = write_graph(tmp_path,
                           "n 8\nlayer G\n0 4\n1 5\n2 6\n3 7\n")
        rc = main(["check-regular", "--graph", path, "-U", "0,1,2,3",
                   "-W", "4,5,6,7", "--eps", "1/4"])
        assert rc == 3
        assert "witness" in capsys.readouterr().out


class TestFindSpotsCmd:
    def test_k44(self, tmp_path, capsys):
        path = write_graph(tmp_path, K44)
        rc = main(["find-spots", "--graph", path, "-m", "3", "--gamma", "1/2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("spot:") == 1
        assert "residual edges: 0" in out


class TestCleanCmd:
    def test_envelope(self, tmp_path, capsys):
        path = write_graph(tmp_path, K44)
        rc = main(["clean", "envelope", "--graph", path,
                   "--sets", "0,1,2,3/4,5,6,7", "--k", "2",
                   "--psi", "1/10", "--Gamma", "2", "--Omega", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P' = 0,1,2,3" in out

    def test_yellow(self, tmp_path, capsys):
        path = write_graph(tmp_path,
                           "n 9\nlayer G\n" + "\n".join(
                               ["%d %d" % (u, v) for u in (0, 1, 2)
                                for v in (3, 4, 5)] +
                               ["%d %d" % (u, v) for u in (3, 4, 5)
                                for v in (6, 7, 8)]) + "\n")
        rc = main(["clean", "yellow", "--graph", path, "--layers", "G,G",
                   "--sets", "0,1,2/3,4,5/6,7,8", "--k", "1",
                   "--delta", "1/100", "--gamma", "1/2", "--eta", "1/10",
                   "--Omega", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "X0' = 0,1,2" in out


def write_instance_dir(tmp_path, b, split):
    d = tmp_path / "inst"
    d.mkdir()
    (d / "graph.txt").write_text(dump_graph(b.g))
    (d / "params.txt").write_text(dump_params(b.p))
    (d / "decomposition.txt").write_text(dump_decomposition(b.sd))
    (d / "split.txt").write_text(dump_split(split))
    return d


def make_instance_dir(tmp_path):
    from pipeline_instances import exp_instance

    b, split = exp_instance()
    return write_instance_dir(tmp_path, b, split), b, split


class TestHuntCmd:
    def test_end_to_end_exit_zero(self, tmp_path, capsys):
        d, b, split = make_instance_dir(tmp_path)
        rc = main(["hunt-config", str(d), "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert (d / "run" / "outcome.txt").exists()
        assert (d / "run" / "witness.txt").exists()

    def test_unmet_exit_two(self, tmp_path, capsys):
        d = tmp_path / "inst"
        d.mkdir()
        (d / "graph.txt").write_text("n 4\nlayer G\n0 1\n")
        (d / "params.txt").write_text("k 3\neta 1/2\n")
        (d / "decomposition.txt").write_text("section H\nsection E\n")
        (d / "split.txt").write_text("fractions 1/3 1/3 1/3\n" + "\n".join(
            "%d 0" % v for v in range(4)) + "\n")
        rc = main(["hunt-config", str(d)])
        assert rc == 2


class TestVerifyWitnessCmd:
    def test_witness_roundtrip_and_verify(self, tmp_path, capsys):
        d, b, split = make_instance_dir(tmp_path)
        main(["hunt-config", str(d), "--seed", "3"])
        capsys.readouterr()
        # the emitted witness file lacks params; run the checker standalone
        wtext = (d / "run" / "witness.txt").read_text()
        w = parse_witness(wtext)
        assert w.tag == "D6"
        assert parse_witness(dump_witness(w)).data.keys() == w.data.keys()

    def test_witness_without_params_exits_three(self, tmp_path, capsys):
        d, b, split = make_instance_dir(tmp_path)
        assert main(["hunt-config", str(d), "--seed", "3"]) == 0
        full = d / "run" / "witness.txt"
        assert main(["verify-witness", str(d), str(full)]) == 0
        lines = full.read_text().splitlines(keepends=True)
        assert lines[0] == "config D6\n"
        assert any(ln.startswith("param ") for ln in lines)
        stripped = d / "stripped.txt"
        stripped.write_text("".join(ln for ln in lines
                                    if not ln.startswith("param ")))
        capsys.readouterr()
        assert main(["verify-witness", str(d), str(stripped)]) == 3
        assert "lacks required numeric parameters" in capsys.readouterr().out

    def test_unrelated_type_error_is_not_reported_as_missing_params(
            self, tmp_path, monkeypatch):
        import structhunt.cli as cli

        d, b, split = make_instance_dir(tmp_path)
        main(["hunt-config", str(d), "--seed", "3"])

        def fail(*args):
            raise TypeError("not an exact rational: 0.5")

        monkeypatch.setattr(cli, "verify_configuration", fail)
        with pytest.raises(TypeError):
            main(["verify-witness", str(d), str(d / "run" / "witness.txt")])

    def test_d1_witness_needs_no_params(self, tmp_path, capsys):
        from pipeline_instances import d1_instance

        d = write_instance_dir(tmp_path, *d1_instance())
        assert main(["hunt-config", str(d)]) == 0
        witness = d / "run" / "witness.txt"
        text = witness.read_text()
        assert text.startswith("config D1\n") and "param " not in text
        capsys.readouterr()
        assert main(["verify-witness", str(d), str(witness)]) == 0
        assert "lacks required" not in capsys.readouterr().out


# every pipeline instance whose hunt writes a witness, by its golden name
HUNT_WITNESSES = sorted(path.parent.name[len("hunt_"):] for path in
                        (Path(__file__).parent / "golden").glob("hunt_*/witness.txt"))


class TestVerifyWitnessFromDisk:
    @pytest.mark.parametrize("name", HUNT_WITNESSES)
    def test_prints_the_in_memory_report(self, tmp_path, capsys, name):
        """verify-witness on the written instance and witness prints the
        report the checker renders for the bundle in memory, and exits 0
        exactly when it passes."""
        import pipeline_instances
        from structhunt.configurations import (PRECONFIG_TAGS, ConfigParams,
                                               verify_configuration,
                                               verify_preconfiguration)
        from structhunt.pipeline import hunt_configuration

        if name.startswith("random_"):
            seed = int(name[len("random_"):])
            b, split = pipeline_instances.random_instance(seed)
        else:
            seed = 0
            b, split = getattr(pipeline_instances, name + "_instance")()
        out = hunt_configuration(b, split, seed=seed)
        d = write_instance_dir(tmp_path, b, split)
        for file, m in (("matching_a.txt", b.MA), ("matching_b.txt", b.MB)):
            if m.pairs:
                (d / file).write_text(dump_matching(m))
        witness = tmp_path / "witness.txt"
        witness.write_text(dump_witness(out.witness, out.config_params))
        check = (verify_preconfiguration if out.witness.tag in PRECONFIG_TAGS
                 else verify_configuration)
        rep = check(out.witness, b, split, out.config_params or ConfigParams())
        rc = main(["verify-witness", str(d), str(witness), "--seed", str(seed)])
        assert capsys.readouterr().out == rep.render() + "\n"
        assert rc == (0 if rep.ok else 3)


class TestFileFormats:
    def test_params_roundtrip(self):
        from structhunt.decomposition import Params

        p = Params(k=5, gamma=Fraction(1, 3))
        p2 = parse_params(dump_params(p))
        assert p2 == p

    def test_matching_roundtrip(self):
        from structhunt.regularity import RegularizedMatching

        m = RegularizedMatching([(frozenset({1, 2}), frozenset({3, 4}))],
                                Fraction(1, 4), Fraction(1, 2), 2, "G_D")
        m2 = parse_matching(dump_matching(m))
        assert m2.pairs == m.pairs and m2.eps == m.eps and m2.layer == "G_D"

    def test_decomposition_roundtrip(self, tmp_path):
        from pipeline_instances import wa_t1_instance

        b, _ = wa_t1_instance()
        text = dump_decomposition(b.sd)
        sd2 = parse_decomposition(text, b.g, b.p)
        assert sd2.H == b.sd.H
        assert sd2.bd.E == b.sd.bd.E
        assert [s.F for s in sd2.bd.spots] == [s.F for s in b.sd.bd.spots]

    def test_split_roundtrip(self):
        from pipeline_instances import exp_instance

        b, split = exp_instance()
        split2 = parse_split(dump_split(split), split.target)
        assert split2.classes[:3] == split.classes[:3]
        assert split2.fractions == split.fractions

    def test_instance_dir_loader(self, tmp_path):
        d, b, split = make_instance_dir(tmp_path)
        g, p, sd, MA, MB, split2 = load_instance_dir(d)
        assert g.n == b.g.n
        assert p.k == b.p.k
        assert split2 is not None
