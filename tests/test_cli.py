import contextlib
import io
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2q import cli, corpus, retrieval
from c2q.cli import run
from c2q.train import CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from c2q.vocab import SPECIALS, Vocabulary

TINY = ["--embed-dim", "8", "--hidden", "8", "--max-len", "8"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One preprocess -> vocab -> tiny train pipeline shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    code = run(["preprocess", "--input", "data/sample_posts.jsonl",
                "--out-dir", data, "--val-count", "10", "--test-count", "10",
                "--seed", "1"])
    assert code == 0

    # shrink the training set so the tiny model trains in seconds
    pairs = corpus.read_pairs(os.path.join(data, "train.jsonl"))
    small_train = os.path.join(data, "small_train.jsonl")
    corpus.write_pairs(pairs[:8], small_train)
    small_test = os.path.join(data, "small_test.jsonl")
    corpus.write_pairs(corpus.read_pairs(os.path.join(data, "test.jsonl"))[:4],
                       small_test)

    vocab_path = os.path.join(data, "vocab.txt")
    assert run(["build-vocab", "--pairs", small_train, "--out", vocab_path,
                "--min-freq", "0"]) == 0

    ckpt = os.path.join(data, "model.ckpt")
    assert run(["train", "--train-pairs", small_train, "--vocab", vocab_path,
                "--checkpoint", ckpt, "--epochs", "1", "--batch-size", "4",
                "--lr", "0.05"] + TINY) == 0
    return {"data": data, "train": small_train, "test": small_test,
            "vocab": vocab_path, "ckpt": ckpt}


def test_preprocess_outputs(workdir):
    data = workdir["data"]
    for name in ("train.jsonl", "val.jsonl", "test.jsonl",
                 "preprocess_report.json"):
        assert os.path.exists(os.path.join(data, name))
    with open(os.path.join(data, "preprocess_report.json")) as fh:
        report = json.load(fh)
    assert report["val"] == 10 and report["test"] == 10
    assert set(report["skipped"]) == {"low_score", "no_code", "empty_title",
                                      "malformed_markers"}


def test_vocab_file_header(workdir):
    with open(workdir["vocab"]) as fh:
        assert fh.readline().startswith("C2Q-VOCAB v1 count=")


def test_generate_stdout_lines(workdir, capsys, tmp_path):
    snippets = tmp_path / "snippets.jsonl"
    snippets.write_text('{"code": "x = foo(1)"}\n{"code": "y = bar(2)"}\n')
    assert run(["generate", "--checkpoint", workdir["ckpt"],
                "--vocab", workdir["vocab"], "--input", str(snippets),
                "--greedy"]) == 0
    lines = capsys.readouterr().out.strip("\n").split("\n")
    assert len(lines) == 2


def test_generate_beam_matches_rerun(workdir, capsys, tmp_path):
    snippets = tmp_path / "snippets.jsonl"
    snippets.write_text('{"code": "z = compute(a, b)"}\n')
    outs = []
    for _ in range(2):
        assert run(["generate", "--checkpoint", workdir["ckpt"],
                    "--vocab", workdir["vocab"], "--input", str(snippets),
                    "--beam", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_evaluate_report_schema(workdir, capsys, tmp_path):
    out = tmp_path / "report.json"
    assert run(["evaluate", "--checkpoint", workdir["ckpt"],
                "--vocab", workdir["vocab"], "--test-pairs", workdir["test"],
                "--greedy", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"bleu1", "bleu2", "bleu3", "bleu4",
                           "rouge1", "rouge2", "rougeL", "pairs"}
    assert report == json.loads(capsys.readouterr().out)


def test_ir_baseline_report(workdir, capsys):
    assert run(["ir-baseline", "--train-pairs", workdir["train"],
                "--test-pairs", workdir["test"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["bleu1"] <= 1.0


def test_dedup_outputs(workdir, capsys, tmp_path):
    out_pairs = tmp_path / "clean.jsonl"
    report_path = tmp_path / "dedup.json"
    assert run(["dedup", "--train-pairs", workdir["train"],
                "--test-pairs", workdir["test"], "--vocab", workdir["vocab"],
                "--out-pairs", str(out_pairs), "--report", str(report_path),
                "--checkpoint", workdir["ckpt"], "--delta", "0.8"]) == 0
    report = json.loads(report_path.read_text())
    kept = corpus.read_pairs(str(out_pairs))
    assert report["kept"] == len(kept)
    assert report["kept"] + report["removed"] == \
        len(corpus.read_pairs(workdir["test"]))


def test_retrieve_format(workdir, capsys, tmp_path):
    snippets = tmp_path / "snippets.jsonl"
    first = corpus.read_pairs(workdir["train"])[0]
    snippets.write_text(json.dumps({"code_tokens": first.code_tokens}) + "\n")
    assert run(["retrieve", "--train-pairs", workdir["train"],
                "--vocab", workdir["vocab"], "--checkpoint", workdir["ckpt"],
                "--input", str(snippets), "--top", "2"]) == 0
    lines = capsys.readouterr().out.strip("\n").split("\n")
    assert len(lines) == 2
    sim, doc_id, title = lines[0].split("\t")
    assert float(sim) == pytest.approx(1.0)
    assert int(doc_id) == first.id


def test_retrieve_prints_nothing_unless_every_query_succeeds(workdir, capsys, tmp_path):
    first = corpus.read_pairs(workdir["train"])[0]
    snippets = tmp_path / "snippets.jsonl"
    snippets.write_text(json.dumps({"code_tokens": first.code_tokens}) + "\n"
                        + json.dumps({"code_tokens": ["zz_not_in_vocab_1", "zz_not_2"]}) + "\n")
    assert run(["retrieve", "--train-pairs", workdir["train"],
                "--vocab", workdir["vocab"], "--checkpoint", workdir["ckpt"],
                "--input", str(snippets), "--top", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(_error_lines(out.err)) == 1 and out.err.startswith("error kind=data")


def test_retrieve_embeds_the_corpus_once(workdir, capsys, tmp_path, monkeypatch):
    pairs = corpus.read_pairs(workdir["train"])
    queries = [p.code_tokens for p in pairs[:3]]
    snippets = tmp_path / "snippets.jsonl"
    snippets.write_text("".join(json.dumps({"code_tokens": q}) + "\n" for q in queries))
    calls = {"embed_code": 0, "embed_corpus": 0}
    embed_code = retrieval.embed_code

    def counting(name):
        embed = getattr(retrieval, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return embed(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(retrieval, name, counting(name))
    assert run(["retrieve", "--train-pairs", workdir["train"],
                "--vocab", workdir["vocab"], "--checkpoint", workdir["ckpt"],
                "--input", str(snippets), "--top", "4"]) == 0
    # one corpus embedding per command, one embed_code per query; the rows
    # of embed_corpus equal embed_code's bit for bit (test_retrieval.py)
    assert calls == {"embed_code": len(queries), "embed_corpus": 1}
    # the same lines as a row-wise scan of every pair's embed_code for each
    # snippet, ranked by descending similarity, ties by lowest id
    vocab = Vocabulary.load(workdir["vocab"])
    E = load_checkpoint(workdir["ckpt"])[0]["E"].data
    embedded = [(p, e.vector) for p in pairs
                if not (e := embed_code(p.code_tokens, E, vocab)).zero]
    M = np.array([vector for _, vector in embedded])
    want = []
    for q in queries:
        sims = 1.0 - np.linalg.norm(M - embed_code(q, E, vocab).vector, axis=1)
        for i in np.lexsort(([p.id for p, _ in embedded], -sims))[:4]:
            p = embedded[i][0]
            want.append(f"{sims[i]:.4f}\t{p.id}\t{' '.join(p.title_tokens)}\n")
    assert capsys.readouterr().out == "".join(want)


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["build-vocab", "--out", "x"]) == 1
    assert "error kind=usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_input_file_is_data_error(capsys):
    assert run(["preprocess", "--input", "/no/such/file.jsonl",
                "--out-dir", "/tmp/never"]) == 2
    assert "error kind=data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["preprocess", "build-vocab", "train", "dedup"])
def test_unreadable_path_is_data_error(workdir, capsys, tmp_path, command):
    # a directory where a file belongs: IsADirectoryError is an OSError
    folder = str(tmp_path)
    argv = {"preprocess": ["--input", folder, "--out-dir", str(tmp_path / "out")],
            "build-vocab": ["--pairs", folder, "--out", str(tmp_path / "v.txt")],
            "train": ["--train-pairs", workdir["train"], "--vocab", folder,
                      "--checkpoint", str(tmp_path / "m.ckpt")],
            "dedup": ["--train-pairs", workdir["train"], "--test-pairs", workdir["test"],
                      "--vocab", workdir["vocab"], "--out-pairs", folder,
                      "--report", str(tmp_path / "r.json")]}[command]
    assert run([command] + argv) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1
    assert err.startswith("error kind=data")


def test_bad_checkpoint_is_data_error(workdir, capsys, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = 1"}\n')
    assert run(["generate", "--checkpoint", str(bad),
                "--vocab", workdir["vocab"], "--input", str(snippets)]) == 2


def test_config_file_provides_defaults(workdir, capsys, tmp_path):
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text("min_freq = 0\n\n# comment line\n")
    out = tmp_path / "vocab_cfg.txt"
    assert run(["build-vocab", "--config", str(cfg),
                "--pairs", workdir["train"], "--out", str(out)]) == 0
    with open(out) as fh, open(workdir["vocab"]) as ref:
        pass  # both exist; sizes compared below
    size_cfg = json.loads(capsys.readouterr().out)["vocab_size"]
    # same min_freq=0 as the fixture vocab but over the full small corpus
    assert size_cfg >= 4


def test_config_flag_wins_over_file(workdir, capsys, tmp_path):
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text("min_freq=5\n")
    out_low = tmp_path / "v_low.txt"
    assert run(["build-vocab", "--config", str(cfg), "--pairs",
                workdir["train"], "--out", str(out_low),
                "--min-freq", "0"]) == 0
    size_flag = json.loads(capsys.readouterr().out)["vocab_size"]
    out_high = tmp_path / "v_high.txt"
    assert run(["build-vocab", "--config", str(cfg), "--pairs",
                workdir["train"], "--out", str(out_high)]) == 0
    size_cfg = json.loads(capsys.readouterr().out)["vocab_size"]
    assert size_flag > size_cfg


def test_config_sets_required_flags(workdir, capsys, tmp_path):
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = foo(1)"}\n')
    argv = ["generate", "--input", str(snippets), "--greedy"]
    assert run(argv + ["--checkpoint", workdir["ckpt"], "--vocab", workdir["vocab"]]) == 0
    titles = capsys.readouterr().out
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text(f"checkpoint = {workdir['ckpt']}\nvocab = {workdir['vocab']}\n")
    assert run(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == titles
    # a flag on the command line wins over the same key in the file
    cfg.write_text(f"checkpoint = {tmp_path / 'missing.ckpt'}\nvocab = {workdir['vocab']}\n")
    assert run(argv + ["--config", str(cfg), "--checkpoint", workdir["ckpt"]]) == 0
    assert capsys.readouterr().out == titles
    assert run(argv + ["--config", str(cfg)]) == 2
    assert "missing.ckpt" in capsys.readouterr().err
    # a required flag that neither gives is still a usage error
    cfg.write_text(f"vocab = {workdir['vocab']}\n")
    assert run(argv + ["--config", str(cfg)]) == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_config_flag_abbreviation_resolves_as_in_the_real_parse(workdir, capsys, tmp_path):
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = foo(1)"}\n')
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text(f"checkpoint = {workdir['ckpt']}\nvocab = {workdir['vocab']}\n")
    argv = ["generate", "--input", str(snippets), "--greedy"]
    assert run(argv + ["--conf", str(cfg)]) == 0
    assert capsys.readouterr().out
    # --c could be --checkpoint or --config: a usage error, the file unread
    assert run(argv + ["--c", str(tmp_path / "missing.cfg")]) == 1
    assert "ambiguous option" in capsys.readouterr().err


def test_config_unknown_key_rejected(workdir, capsys, tmp_path):
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text("bogus_key=1\n")
    assert run(["build-vocab", "--config", str(cfg), "--pairs",
                workdir["train"], "--out", str(tmp_path / "v.txt")]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_config_malformed_line_rejected(workdir, capsys, tmp_path):
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text("not a key value line\n")
    assert run(["build-vocab", "--config", str(cfg), "--pairs",
                workdir["train"], "--out", str(tmp_path / "v.txt")]) == 2


def test_config_bytes_that_are_not_utf8_name_their_file_and_line(workdir, capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"min_freq=0\n\xff\xfemax_size=10\n")
    assert run(["build-vocab", "--config", str(cfg), "--pairs",
                workdir["train"], "--out", str(tmp_path / "v.txt")]) == 2
    out = capsys.readouterr()
    assert len(_error_lines(out.err)) == 1 and out.err.startswith("error kind=data")
    assert f"{cfg}:2:" in out.err
    assert not (tmp_path / "v.txt").exists()


def test_config_max_size_below_the_specials_is_data_error(workdir, capsys, tmp_path):
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text("max_size=2\n")
    assert run(["build-vocab", "--config", str(cfg), "--pairs",
                workdir["train"], "--out", str(tmp_path / "v.txt")]) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and err.startswith("error kind=data")
    assert "max_size" in err
    assert not (tmp_path / "v.txt").exists()


def test_threads_env_same_output(workdir, capsys, tmp_path, monkeypatch):
    snippets = tmp_path / "snippets.jsonl"
    snippets.write_text('{"code": "a = f(1)"}\n{"code": "b = g(2)"}\n'
                        '{"code": "c = h(3)"}\n')
    argv = ["generate", "--checkpoint", workdir["ckpt"],
            "--vocab", workdir["vocab"], "--input", str(snippets), "--greedy"]
    assert run(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("C2Q_THREADS", "3")
    assert run(argv) == 0
    assert capsys.readouterr().out == serial


def _error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error kind=")]


@pytest.mark.parametrize("argv", [
    ["generate", "--beam", "0"],
    ["generate", "--greedy", "--max-len", "0"],
    ["generate", "--max-len", "-1"],
    ["generate", "--beam", "two"],
    ["evaluate", "--test-pairs", "x.jsonl", "--beam", "0"],
    ["retrieve", "--train-pairs", "x.jsonl", "--top", "0"],
    ["train", "--train-pairs", "x.jsonl", "--checkpoint", "x.ckpt",
     "--max-len", "0"],
    ["preprocess", "--input", "x.jsonl", "--out-dir", "x", "--val-count", "-5"],
    ["preprocess", "--input", "x.jsonl", "--out-dir", "x", "--test-count", "-1"],
    ["build-vocab", "--pairs", "x.jsonl", "--out", "x.txt", "--max-size", "-1"],
    ["build-vocab", "--pairs", "x.jsonl", "--out", "x.txt", "--max-size", "3"],  # < 4 specials
    ["build-vocab", "--pairs", "x.jsonl", "--out", "x.txt", "--min-freq", "-1"],
    *[["train", "--train-pairs", "x.jsonl", "--checkpoint", "x.ckpt", flag, value]
      for flag, value in [("--epochs", "0"), ("--batch-size", "0"),
                          ("--embed-dim", "0"), ("--hidden", "0"),
                          ("--grad-clip", "-1"), ("--grad-clip", "nan"),
                          ("--lr", "inf"), ("--lambda-cov", "nan")]],
    ["dedup", "--train-pairs", "x.jsonl", "--test-pairs", "x.jsonl",
     "--out-pairs", "y.jsonl", "--report", "r.json", "--delta", "nan"],
    ["dedup", "--train-pairs", "x.jsonl", "--test-pairs", "x.jsonl",
     "--out-pairs", "y.jsonl", "--report", "r.json", "--embed-dim", "0"],
    ["retrieve", "--train-pairs", "x.jsonl", "--embed-dim", "0"],
    ["generate", "--greedy", "--max-len", "257"],  # above MAX_DECODE_LEN
    ["train", "--train-pairs", "x.jsonl", "--checkpoint", "x.ckpt", "--max-len", "257"],
])
def test_count_flags_below_one_are_usage_errors(workdir, capsys, argv):
    common = [] if argv[0] in ("preprocess", "build-vocab") else ["--vocab", workdir["vocab"]]
    if argv[0] in ("generate", "evaluate"):
        common += ["--checkpoint", workdir["ckpt"]]
    assert run(argv + common) == 1
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1
    assert err.startswith("error kind=usage")


SUBPARSERS = cli.build_parser()[1]


def test_seed_is_a_flag_only_of_commands_that_draw_random_numbers():
    with_seed = {name for name, p in SUBPARSERS.items()
                 if any(a.dest == "seed" for a in p._actions)}
    assert with_seed == {"preprocess", "train", "dedup", "retrieve"}


TYPED_FLAGS = {command: [a.option_strings[0] for a in p._actions
                         if a.option_strings and (a.type or a.choices)]
               for command, p in SUBPARSERS.items()}


def _flag_values(command):
    """(command, arbitrary text for some of its typed and choice flags)."""
    text = st.one_of(st.text(), st.integers().map(str), st.floats().map(str))
    return st.tuples(st.just(command),
                     st.dictionaries(st.sampled_from(TYPED_FLAGS[command]), text, min_size=1))


@settings(max_examples=200)
@given(case=st.sampled_from(sorted(c for c, flags in TYPED_FLAGS.items() if flags))
       .flatmap(_flag_values))
def test_arbitrary_flag_values_end_in_one_error_line(fuzzdir, case):
    # every required flag names a missing path, so a value that a flag
    # accepts still ends the run at its first read
    command, values = case
    argv = [command] + [f"{flag}={value}" for flag, value in values.items()] + [
        f"{a.option_strings[0]}={fuzzdir / 'missing' / a.dest}"
        for a in SUBPARSERS[command]._actions if a.required]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (1, 2), argv
    assert err.getvalue().count("\n") == 1 and _error_lines(err.getvalue()), err.getvalue()
    assert out.getvalue() == ""


def test_count_below_one_in_config_is_data_error(workdir, capsys, tmp_path):
    cfg = tmp_path / "c2q.cfg"
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = 1"}\n')
    for line in ("beam=0", "max_len=257"):
        cfg.write_text(line + "\n")
        assert run(["generate", "--config", str(cfg), "--checkpoint", workdir["ckpt"],
                    "--vocab", workdir["vocab"], "--input", str(snippets)]) == 2
        assert _error_lines(capsys.readouterr().err)[0].startswith("error kind=data")


def test_choice_outside_its_choices_in_config_is_data_error(workdir, capsys, tmp_path):
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text("ablation = zzz\n")
    ckpt = tmp_path / "model.ckpt"
    assert run(["train", "--config", str(cfg), "--train-pairs", workdir["train"],
                "--vocab", workdir["vocab"], "--checkpoint", str(ckpt)] + TINY) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and err.startswith("error kind=data")
    assert "ablation" in err and not ckpt.exists()


def _dedup_report(workdir, tmp_path, extra):
    report = tmp_path / "dedup.json"
    assert run(["dedup", "--train-pairs", workdir["train"], "--test-pairs", workdir["test"],
                "--vocab", workdir["vocab"], "--out-pairs", str(tmp_path / "clean.jsonl"),
                "--report", str(report), "--delta", "0.1"] + extra) == 0
    return report.read_text()


def test_config_switches_an_on_off_flag_off(workdir, capsys, tmp_path):
    # "false" must not read as a non-empty string, which is true
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text("raw_embeddings = false\n")
    plain = _dedup_report(workdir, tmp_path, [])
    assert _dedup_report(workdir, tmp_path, ["--raw-embeddings"]) != plain
    assert _dedup_report(workdir, tmp_path, ["--config", str(cfg)]) == plain
    for value in ("TRUE", "yes", "1"):
        cfg.write_text(f"raw_embeddings = {value}\n")
        assert (_dedup_report(workdir, tmp_path, ["--config", str(cfg)])
                == _dedup_report(workdir, tmp_path, ["--raw-embeddings"]))


def test_config_greedy_false_decodes_with_the_beam(workdir, capsys, tmp_path, monkeypatch):
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = foo(1)"}\n')
    argv = ["generate", "--checkpoint", workdir["ckpt"], "--vocab", workdir["vocab"],
            "--input", str(snippets), "--beam", "3"]
    assert run(argv) == 0
    beam = capsys.readouterr().out
    cfg = tmp_path / "c2q.cfg"
    cfg.write_text("greedy = False\n")

    def no_greedy(*args, **kwargs):
        raise AssertionError("greedy decoding ran")
    monkeypatch.setattr(cli, "greedy_decode_full", no_greedy)
    assert run(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == beam


def test_config_on_off_flag_rejects_other_values(workdir, capsys, tmp_path):
    cfg = tmp_path / "c2q.cfg"
    for value in ("maybe", "", "2", "on"):
        cfg.write_text(f"greedy = {value}\n")
        assert run(["generate", "--config", str(cfg), "--checkpoint", workdir["ckpt"],
                    "--vocab", workdir["vocab"], "--input", str(tmp_path / "none.jsonl")]) == 2
        err = capsys.readouterr().err
        assert len(_error_lines(err)) == 1 and err.startswith("error kind=data")
        assert "greedy" in err


# 10**12 rows or columns ask malloc for petabytes, which it refuses at once:
# never a size this machine could really allocate
@pytest.mark.parametrize("argv", [
    ["retrieve", "--input", "{snippets}", "--embed-dim", str(10 ** 12)],
    ["dedup", "--test-pairs", "{test}", "--out-pairs", "{tmp}/clean.jsonl",
     "--report", "{tmp}/r.json", "--embed-dim", str(10 ** 12)],
    ["train", "--checkpoint", "{tmp}/m.ckpt", "--embed-dim", str(10 ** 12)],
    ["train", "--checkpoint", "{tmp}/m.ckpt", "--hidden", str(10 ** 12)],
], ids=["retrieve", "dedup", "train-embed-dim", "train-hidden"])
def test_oversized_dimension_is_one_error_line(workdir, capsys, tmp_path, argv):
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = 1"}\n')
    argv = [a.format(snippets=snippets, test=workdir["test"], tmp=tmp_path) for a in argv]
    assert run(argv + ["--train-pairs", workdir["train"], "--vocab", workdir["vocab"]]) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and err.startswith("error kind=memory")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("line", [
    '"my code here"',
    '[1, 2]',
    '{"code_tokens": "abc"}',
    '{"code_tokens": ["a", ""]}',
    '{"code_tokens": [1, 2]}',
    '{"code": 5}',
    '{"code": "x = 1", "lang": ["python"]}',
    '{"code": "x = 1", "lang": "cobol"}',
    '{"code_tokens": ["a b"]}',
    '{"code_tokens": ["x", "<end>"]}',
    '{"code": "x = \\ud800"}',  # a lone surrogate: UTF-8 cannot encode it
    '{"code": "x = 1", "lang": "\\udc00"}',
    '{"code_tokens": []}',  # code with no tokens, given or tokenized
    '{"code": "# only a comment"}',
])
def test_malformed_snippet_is_data_error(workdir, capsys, tmp_path, line):
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = 1"}\n' + line + "\n")
    for argv in (["generate", "--checkpoint", workdir["ckpt"], "--greedy"],
                 ["retrieve", "--train-pairs", workdir["train"]]):
        assert run(argv + ["--vocab", workdir["vocab"],
                           "--input", str(snippets)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(_error_lines(out.err)) == 1
        assert out.err.startswith("error kind=data")
        assert f"{snippets}:2:" in out.err


NESTED = "[" * 100_000  # a JSON line too deep for the parser to recurse through


@pytest.mark.parametrize("kind,argv", [
    ("posts", ["preprocess", "--out-dir", "{tmp}/out", "--input"]),
    ("pairs", ["build-vocab", "--out", "{tmp}/vocab.txt", "--pairs"]),
    ("pairs", ["ir-baseline", "--train-pairs", "{train}", "--test-pairs"]),
    ("snippets", ["generate", "--checkpoint", "{ckpt}", "--vocab", "{vocab}", "--greedy",
                  "--input"]),
    ("snippets", ["retrieve", "--train-pairs", "{train}", "--vocab", "{vocab}"]),
], ids=["preprocess", "build-vocab", "ir-baseline", "generate", "retrieve-stdin"])
def test_deeply_nested_line_names_its_file_and_line(workdir, capsys, tmp_path, monkeypatch,
                                                    kind, argv):
    first = json.dumps(VALID_RECORDS[kind])
    argv = [a.format(tmp=tmp_path, **workdir) for a in argv]
    if argv[-1].startswith("--"):
        path = tmp_path / "input.jsonl"
        path.write_text(f"{first}\n{NESTED}\n")
        argv.append(str(path))
    else:  # the records arrive on stdin
        path = "<stdin>"
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{first}\n{NESTED}\n"))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and err.startswith("error kind=data")
    assert f"{path}:2:" in err


BAD_BYTES = b"\xff\xfe{}"  # a line whose first two bytes are not UTF-8


@pytest.mark.parametrize("kind,argv", [
    ("posts", ["preprocess", "--out-dir", "{tmp}/out", "--input"]),
    ("pairs", ["build-vocab", "--out", "{tmp}/vocab.txt", "--pairs"]),
    ("snippets", ["generate", "--checkpoint", "{ckpt}", "--vocab", "{vocab}", "--greedy",
                  "--input"]),
    ("snippets", ["retrieve", "--train-pairs", "{train}", "--vocab", "{vocab}"]),
], ids=["preprocess", "build-vocab", "generate", "retrieve-stdin"])
def test_bytes_that_are_not_utf8_name_their_file_and_line(workdir, capsys, tmp_path,
                                                          monkeypatch, kind, argv):
    first = json.dumps(VALID_RECORDS[kind]).encode()
    data = first + b"\n" + first + b"\n" + BAD_BYTES + b"\n" + first + b"\n"
    argv = [a.format(tmp=tmp_path, **workdir) for a in argv]
    if argv[-1].startswith("--"):
        path = tmp_path / "input.jsonl"
        path.write_bytes(data)
        argv.append(str(path))
    else:  # the records arrive on stdin
        path = "<stdin>"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(_error_lines(out.err)) == 1 and out.err.startswith("error kind=data")
    assert f"{path}:3:" in out.err


def test_vocab_bytes_that_are_not_utf8_name_their_file_and_line(workdir, capsys, tmp_path):
    lines = open(workdir["vocab"], "rb").read().split(b"\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_bytes(b"\n".join(lines[:2] + [b"\xff\xfe" + lines[2]] + lines[3:]))
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = 1"}\n')
    assert run(["generate", "--checkpoint", workdir["ckpt"], "--vocab", str(vocab),
                "--input", str(snippets), "--greedy"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(_error_lines(out.err)) == 1 and out.err.startswith("error kind=data")
    assert f"{vocab}:3:" in out.err


@pytest.mark.parametrize("token", ["", "bar baz"], ids=["empty", "space"])
def test_vocab_bad_token_line_names_its_file_and_line(workdir, capsys, tmp_path, token):
    lines = open(workdir["vocab"], encoding="utf-8").read().split("\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(lines[:2] + [token] + lines[3:]), encoding="utf-8")
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = 1"}\n')
    assert run(["generate", "--checkpoint", workdir["ckpt"], "--vocab", str(vocab),
                "--input", str(snippets), "--greedy"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(_error_lines(out.err)) == 1 and out.err.startswith("error kind=data")
    assert f"{vocab}:3:" in out.err


def test_pair_lang_must_be_a_string(workdir, capsys, tmp_path):
    record = VALID_RECORDS["pairs"]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps(dict(record, id=i, lang=lang)) + "\n"
                             for i, lang in enumerate(["python", "java", [1, 2]])))
    out_pairs = tmp_path / "clean.jsonl"
    for argv in (["build-vocab", "--pairs", str(pairs), "--out", str(tmp_path / "v.txt")],
                 ["dedup", "--train-pairs", workdir["train"], "--test-pairs", str(pairs),
                  "--vocab", workdir["vocab"], "--out-pairs", str(out_pairs),
                  "--report", str(tmp_path / "dedup.json")]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert len(_error_lines(err)) == 1 and err.startswith("error kind=data")
        assert f"{pairs}:3:" in err
    assert not out_pairs.exists()


def test_pair_without_code_tokens_is_data_error(workdir, capsys, tmp_path):
    # the encoder needs a token; the reader names the record instead
    record = VALID_RECORDS["pairs"]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(record) + "\n" + json.dumps(dict(record, code_tokens=[])) + "\n")
    for argv in (["train", "--train-pairs", str(pairs), "--vocab", workdir["vocab"],
                  "--checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1"] + TINY,
                 ["evaluate", "--checkpoint", workdir["ckpt"], "--vocab", workdir["vocab"],
                  "--test-pairs", str(pairs), "--greedy"],
                 ["ir-baseline", "--train-pairs", workdir["train"], "--test-pairs", str(pairs)]):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and len(_error_lines(out.err)) == 1
        assert out.err.startswith("error kind=data") and f"{pairs}:2:" in out.err
    assert not (tmp_path / "m.ckpt").exists()


def test_deeply_nested_checkpoint_header_is_data_error(workdir, capsys, tmp_path):
    header = NESTED.encode()
    ckpt = tmp_path / "nested.ckpt"
    ckpt.write_bytes(b"C2Q1" + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header)
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"code": "x = 1"}\n')
    assert run(["generate", "--checkpoint", str(ckpt), "--vocab", workdir["vocab"],
                "--input", str(snippets), "--greedy"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(_error_lines(out.err)) == 1
    assert out.err.startswith("error kind=data") and "bad header" in out.err


@pytest.mark.parametrize("field", ["lang", "title", "body"])
def test_lone_surrogate_in_post_is_data_error(capsys, tmp_path, field):
    post = {"id": 7, "lang": "python", "title": "How do I add two numbers together?",
            "body": "<code>\nx = add(a, b) + add(c, d) * 2 - 1\nprint(x, a, b)\n</code>",
            "score": 3}
    post[field] += "\ud800"
    posts = tmp_path / "posts.jsonl"
    posts.write_text(json.dumps(post) + "\n")
    out = tmp_path / "out"
    assert run(["preprocess", "--input", str(posts), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and err.startswith("error kind=data")
    assert f"{posts}:1:" in err
    assert not out.exists()


@pytest.mark.parametrize("tensor", ["W_v", "E", "dec_U"])
def test_non_finite_checkpoint_is_data_error(workdir, capsys, tmp_path, tensor):
    params, hyper, vocab_hash = load_checkpoint(workdir["ckpt"])
    params[tensor].data.flat[1] = np.nan
    bad = str(tmp_path / "nan.ckpt")
    save_checkpoint(params, hyper, vocab_hash, bad)
    evaluate = ["evaluate", "--test-pairs", workdir["test"], "--greedy"]
    dedup = ["dedup", "--train-pairs", workdir["train"], "--test-pairs", workdir["test"],
             "--out-pairs", str(tmp_path / "clean.jsonl"),
             "--report", str(tmp_path / "report.json")]
    for argv in (evaluate, dedup):
        assert run(argv + ["--checkpoint", bad, "--vocab", workdir["vocab"]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert len(_error_lines(out.err)) == 1 and out.err.startswith("error kind=data")
        assert tensor in out.err
    assert sorted(os.listdir(tmp_path)) == ["nan.ckpt"]


def test_report_onto_a_directory_leaves_no_tmp(workdir, capsys, tmp_path):
    folder = tmp_path / "report"
    folder.mkdir()
    assert run(["ir-baseline", "--train-pairs", workdir["train"],
                "--test-pairs", workdir["test"], "--out", str(folder)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(_error_lines(out.err)) == 1 and out.err.startswith("error kind=data")
    assert os.listdir(tmp_path) == ["report"]


def test_build_vocab_rejects_whitespace_token(capsys, tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"id": 1, "lang": "python", "code_tokens": ["a\nb", "c\rd"],
                                 "title_tokens": ["how"]}) + "\n")
    out = tmp_path / "vocab.txt"
    assert run(["build-vocab", "--pairs", str(pairs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and err.startswith("error kind=data")
    assert not out.exists()


def test_build_vocab_bad_token_leaves_existing_vocab_intact(capsys, tmp_path):
    # a lone surrogate cannot be written as UTF-8; the pairs are rejected
    # before any write, and an earlier vocab file keeps every byte
    out = tmp_path / "vocab.txt"
    Vocabulary(list(SPECIALS) + ["a", "b", "c"]).save(str(out))
    before = out.read_bytes()
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"id": 1, "lang": "python", "code_tokens": ["a", "b", "c", "\\ud800"], '
                     '"title_tokens": ["how"]}\n')
    assert run(["build-vocab", "--pairs", str(pairs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and err.startswith("error kind=data")
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["pairs.jsonl", "vocab.txt"]  # no temp file left


# Reader fuzzing: each reader gets lines of raw bytes, or valid JSON records
# with one field set to an arbitrary JSON value; edge values that readers
# have mishandled before are drawn explicitly.
JSON_LEAF = st.one_of(st.integers(), st.floats(), st.text(max_size=6), st.none(),
                      st.booleans())
JSON_VALUE = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.5, 2 ** 64, "12",
                     "a b", "<end>"]),
    JSON_LEAF, st.lists(JSON_LEAF, max_size=3),
    st.dictionaries(st.text(max_size=3), JSON_LEAF, max_size=3))
VALID_RECORDS = {
    "posts": {"id": 1, "lang": "python", "title": "How do I sum a range of numbers?",
              "body": "<code>\nfor i in range(10):\n    total = total + i * 2\n"
                      "print(total, i)\n</code>", "score": 3},
    "pairs": {"id": 1, "lang": "python", "code_tokens": ["x", "=", "NUMBER"],
              "title_tokens": ["how", "to", "x"]},
    "snippets": {"code_tokens": ["x", "=", "y"], "code": "x = 1", "lang": "python"},
}


def _reader_input(reader):
    valid = VALID_RECORDS[reader]
    record = st.tuples(st.sampled_from(sorted(valid)), JSON_VALUE).map(
        lambda field: {**valid, field[0]: field[1]})
    line = st.one_of(st.binary(max_size=40), record.map(lambda r: json.dumps(r).encode()))
    return st.tuples(st.just(reader), st.lists(line, min_size=1, max_size=3).map(b"\n".join))


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(case=st.sampled_from(sorted(VALID_RECORDS)).flatmap(_reader_input))
def test_readers_exit_cleanly_on_arbitrary_input(workdir, fuzzdir, case):
    reader, data = case
    path = str(fuzzdir / "input.jsonl")
    with open(path, "wb") as fh:
        fh.write(data)
    argv = {"posts": ["preprocess", "--input", path, "--out-dir", str(fuzzdir / "out")],
            "pairs": ["build-vocab", "--pairs", path, "--out", str(fuzzdir / "vocab.txt")],
            "snippets": ["retrieve", "--train-pairs", workdir["train"],
                         "--vocab", workdir["vocab"], "--input", path]}[reader]
    _assert_clean_exit(argv)


def _assert_clean_exit(argv):
    """Exit 0 with nothing on stderr, or exit 1 or 2 with one error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2)
        assert err.count("\n") == 1 and err.startswith("error kind=")


# Vocab and config fuzzing: raw bytes, or files shaped like the real thing.
# Config lines use the command's own keys with small or malformed values, so
# no value asks for a large allocation (every number has at most 4 digits).
CONFIG_KEYS = {"ir-baseline": [],
               "dedup": ["seed", "delta", "embed_dim", "raw_embeddings", "checkpoint"],
               "retrieve": ["seed", "top", "lang", "embed_dim", "checkpoint"]}
CONFIG_VALUE = st.one_of(st.sampled_from(["", "0", "-1", "3", "0.5", "nan", "inf", "1e3",
                                          "python", "java", "zzz", "."]),
                         st.text(max_size=4))


def _config_file(command):
    # never "out": a config must not send ir-baseline's report into the tree
    key = st.one_of(st.sampled_from(CONFIG_KEYS[command] + ["config"]),
                    st.text(max_size=3).filter(lambda k: k.strip() != "out"))
    line = st.one_of(st.tuples(key, CONFIG_VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}".encode()),
                     st.binary(max_size=20))
    return st.tuples(st.just(command), st.lists(line, max_size=4).map(b"\n".join))


VOCAB_FILE = st.one_of(
    st.binary(max_size=40),
    st.tuples(st.lists(st.one_of(st.sampled_from(list(SPECIALS) + ["x", "=", "y"]),
                                 st.text(max_size=3)), max_size=6),
              st.integers(0, 1)).map(
        lambda tc: (f"C2Q-VOCAB v1 count={len(tc[0]) + tc[1]}\n"
                    + "".join(t + "\n" for t in tc[0])).encode("utf-8", "surrogatepass")))


@settings(max_examples=150)
@given(case=st.one_of(st.tuples(st.just("vocab"), VOCAB_FILE),
                      *(_config_file(command) for command in sorted(CONFIG_KEYS))))
def test_vocab_and_config_files_exit_cleanly_on_arbitrary_input(workdir, fuzzdir, case):
    kind, data = case
    path = str(fuzzdir / "input.txt")
    with open(path, "wb") as fh:
        fh.write(data)
    snippets = str(fuzzdir / "query.jsonl")
    with open(snippets, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"code_tokens": ["x", "=", "y"]}) + "\n")
    retrieve = ["retrieve", "--train-pairs", workdir["train"], "--input", snippets]
    argv = {"vocab": retrieve + ["--vocab", path],
            "ir-baseline": ["ir-baseline", "--train-pairs", workdir["train"],
                            "--test-pairs", workdir["test"]],
            "dedup": ["dedup", "--train-pairs", workdir["train"],
                      "--test-pairs", workdir["test"], "--vocab", workdir["vocab"],
                      "--out-pairs", str(fuzzdir / "clean.jsonl"),
                      "--report", str(fuzzdir / "report.json")],
            "retrieve": retrieve + ["--vocab", workdir["vocab"]]}[kind]
    _assert_clean_exit(argv + (["--config", path] if kind != "vocab" else []))


# Checkpoint fuzzing: the fixture's checkpoint cut short, with one byte
# flipped anywhere (preamble, header or tensor data), or with one header
# field (hyperparams, vocab_size, vocab_hash or one hyperparam) replaced by
# an arbitrary JSON value or deleted (the header length rewritten to match),
# fed to every command that loads a checkpoint.
def _rewrite_header(raw, edit):
    """Checkpoint bytes ``raw`` with the header JSON passed through ``edit``
    and the header length rewritten to match."""
    header_len = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12:12 + header_len])
    edit(header)
    text = json.dumps(header).encode()
    return raw[:8] + struct.pack("<I", len(text)) + text + raw[12 + header_len:]


def _damaged_checkpoint(data, raw):
    how = data.draw(st.sampled_from(["truncate", "flip", "header"]))
    if how == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]

    def edit(header):
        paths = ([[key] for key in header]
                 + [["hyperparams", key] for key in header["hyperparams"]])
        *parents, key = data.draw(st.sampled_from(paths))
        node = header
        for step in parents:
            node = node[step]
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUE)
    return _rewrite_header(raw, edit)


def test_checkpoint_asking_for_an_endless_decode_is_data_error(workdir, capsys, tmp_path):
    # evaluate decodes up to the header's max_decode_len: 2**64 is refused, not run
    with open(workdir["ckpt"], "rb") as fh:
        raw = fh.read()
    ckpt = tmp_path / "long.ckpt"
    ckpt.write_bytes(_rewrite_header(
        raw, lambda header: header["hyperparams"].update(max_decode_len=2 ** 64)))
    assert run(["evaluate", "--checkpoint", str(ckpt), "--vocab", workdir["vocab"],
                "--test-pairs", workdir["test"], "--greedy"]) == 2
    err = capsys.readouterr().err
    assert len(_error_lines(err)) == 1 and "max_decode_len" in err


def test_version_1_checkpoint_is_data_error(workdir, capsys, tmp_path):
    # format 1 also listed every tensor's name, shape and offset; it is not read
    with open(workdir["ckpt"], "rb") as fh:
        raw = fh.read()
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    assert run(["evaluate", "--checkpoint", str(ckpt), "--vocab", workdir["vocab"],
                "--test-pairs", workdir["test"], "--greedy"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(_error_lines(out.err)) == 1
    assert out.err.startswith("error kind=data") and "unsupported version 1" in out.err


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_checkpoints_exit_cleanly(workdir, fuzzdir, data):
    with open(workdir["ckpt"], "rb") as fh:
        raw = fh.read()
    ckpt = str(fuzzdir / "damaged.ckpt")
    with open(ckpt, "wb") as fh:
        fh.write(_damaged_checkpoint(data, raw))
    snippets = str(fuzzdir / "snippets.jsonl")
    with open(snippets, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"code": "x = foo(1)"}) + "\n")
    common = ["--checkpoint", ckpt, "--vocab", workdir["vocab"]]
    for argv in (["generate", "--input", snippets, "--greedy"],
                 ["evaluate", "--test-pairs", workdir["test"], "--greedy"],
                 ["retrieve", "--train-pairs", workdir["train"], "--input", snippets],
                 ["dedup", "--train-pairs", workdir["train"], "--test-pairs", workdir["test"],
                  "--out-pairs", str(fuzzdir / "clean.jsonl"),
                  "--report", str(fuzzdir / "report.json")]):
        _assert_clean_exit(argv + common)
