import hashlib
import json
from decimal import Decimal

import pytest

from bindsig.cli import main

from oracles import ulc_stage_count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_valid_file(tmp_path, capsys):
    f = tmp_path / "ulc.sig"
    f.write_text("signature ulc\nop app : (*, *) -> *\nop abs : ([*] *) -> *\n")
    code, _out, err = run(capsys, "check", str(f))
    assert code == 0
    assert "ok" in err


def test_check_duplicate_op(tmp_path, capsys):
    f = tmp_path / "dup.sig"
    f.write_text("signature dup\nop app : () -> *\nop app : () -> *\n")
    code, _out, err = run(capsys, "check", str(f))
    assert code == 1
    assert "DuplicateName" in err and "app" in err


def test_check_missing_file(capsys):
    code, _out, err = run(capsys, "check", "/nonexistent/file.sig")
    assert code == 2


def not_utf8(tmp_path):
    f = tmp_path / "latin1.sig"
    f.write_bytes("signature s\n# caf\u00e9\nop app : (*, *) -> *\n".encode("latin-1"))
    return f


@pytest.mark.parametrize("command", ["check", "enum", "translate"])
def test_file_not_in_utf8_is_an_io_error(tmp_path, capsys, command):
    f = not_utf8(tmp_path)
    if command == "check":
        argv = ("check", str(f))
    elif command == "enum":
        argv = ("enum", "--sig", str(f), "--depth", "1")
    else:  # a table in UTF-8 whose header names the signature file
        table = tmp_path / "s2ulc.tbl"
        table.write_text(f"translate {f} -> ulc\nclause app = (op app (ph 0) (ph 1))\n")
        argv = ("translate", "--table", str(table), "(var 0)")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("io error: 'utf-8' codec can't decode byte 0xe9") and err.count("\n") == 1


def test_check_syntax_error(tmp_path, capsys):
    f = tmp_path / "bad.sig"
    f.write_text("signature bad\nop app : (* -> *\n")
    code, _out, err = run(capsys, "check", str(f))
    assert code == 1
    assert "ParseError" in err


# ---------------------------------------------------------------------------
# enum / chain


def test_enum_count(capsys):
    code, out, _ = run(capsys, "enum", "--sig", "ulc", "--ctx", "0", "--depth", "3", "--count")
    assert code == 0 and out.strip() == "5"


def test_enum_depth_two(capsys):
    code, out, _ = run(capsys, "enum", "--sig", "ulc", "--ctx", "0", "--depth", "2")
    assert code == 0 and out.strip() == "(op abs (var 0))"


def test_enum_depth_zero_empty(capsys):
    code, out, _ = run(capsys, "enum", "--sig", "ulc", "--ctx", "0", "--depth", "0")
    assert code == 0 and out == ""


def test_enum_outputs_reparse(capsys):
    from bindsig import parse_term, print_term

    code, out, _ = run(capsys, "enum", "--sig", "fol", "--ctx", "1", "--depth", "2")
    assert code == 0
    for line in out.splitlines():
        assert print_term(parse_term(line)) == line


def test_enum_typed_requires_bound(capsys):
    message = "Unbounded: schema app has sort parameters; pass a sort-depth bound\n"
    for fmt in ("text", "records"):
        argv = ("enum", "--sig", "stlc", "--ctx", "0", "--sort", "iota", "--format", fmt)
        assert run(capsys, *argv) == (1, "", message)


def test_enum_records_format(capsys):
    code, out, _ = run(
        capsys, "enum", "--sig", "ulc", "--ctx", "0", "--depth", "2", "--format", "records"
    )
    assert code == 0
    assert json.loads(out.strip()) == {"term": "(op abs (var 0))"}


@pytest.mark.parametrize(
    "sig, ctx, sort, depth, bound",
    [
        ("ulc", "1", None, 4, None),
        ("ulc", "2", None, 4, None),  # 10 087 lines: more than one write
        ("fol", "1", None, 3, None),
        ("stlc", "(ctx iota)", "arrow(iota,iota)", 3, 1),
        ("pcf", "(ctx nat)", "nat", 3, 1),
        ("ulc", "1", None, 0, None),
        ("stlc", "0", "iota", 0, None),  # stage 0 is empty, bound or not
    ],
)
def test_enum_listings_are_the_printed_terms(capsys, sig, ctx, sort, depth, bound):
    from bindsig import builtin, enumerate_terms, parse_context, parse_sort, print_term

    signature = builtin(sig)
    cell = parse_context(signature.types, ctx)
    cell_sort = parse_sort(sort) if sort else signature.types.single_sort()
    texts = [print_term(t) for t in enumerate_terms(signature, cell, cell_sort, depth, bound)]
    assert bool(texts) == (depth > 0)
    argv = ["enum", "--sig", sig, "--ctx", ctx, "--depth", str(depth)]
    argv += ["--sort", sort] if sort else []
    argv += ["--max-sort-depth", str(bound)] if bound is not None else []
    assert run(capsys, *argv) == (0, "".join(text + "\n" for text in texts), "")
    records = "".join(json.dumps({"term": text}, sort_keys=True) + "\n" for text in texts)
    assert run(capsys, *argv, "--format", "records") == (0, records, "")


def test_chain_stages(capsys):
    code, out, _ = run(capsys, "chain", "--sig", "ulc", "--ctx", "0", "--depth", "4")
    assert code == 0
    assert out.splitlines() == ["0 0", "1 0", "2 1", "3 5", "4 51"]


# ---------------------------------------------------------------------------
# laws


def test_laws_pass_exit_zero(capsys):
    code, out, _ = run(
        capsys, "laws", "--sig", "ulc", "--depth", "2", "--seed", "42", "--cases", "100"
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_laws_fv_model(capsys):
    code, out, _ = run(capsys, "laws", "--sig", "ulc", "--model", "fv", "--depth", "2")
    assert code == 0
    assert "morphism:fv" in out


def test_laws_fv_on_typed_signature(capsys):
    argv = ("laws", "--sig", "stlc", "--depth", "3", "--max-sort-depth", "1", "--format", "records")
    code, out, err = run(capsys, *argv, "--model", "fv")
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["suite"], r["cases"], r["status"]) for r in records] == [
        ("monoid:fv", 456, "pass"),
        ("module:fv", 118, "pass"),
        ("morphism:fv", 350, "pass"),
    ]
    _code, term_out, _err = run(capsys, *argv)
    assert out == term_out.replace(":term", ":fv")


def test_laws_deterministic_given_seed(capsys):
    args = ("laws", "--sig", "ulc", "--depth", "2", "--seed", "9", "--cases", "200")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_laws_records_format(capsys):
    code, out, _ = run(
        capsys, "laws", "--sig", "ulc", "--depth", "2", "--format", "records"
    )
    assert code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        assert rec["status"] == "pass"


# ---------------------------------------------------------------------------
# subst


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("--sig ulc --depth 3 --seed 42 --cases 200", "14593d4ee5d9"),
        ("--sig stlc --depth 3 --max-sort-depth 1", "f25a43c1d3f8"),
        ("--sig pcf --depth 2 --max-sort-depth 1", "8f9b4a45cb66"),
        ("--sig fol --depth 2 --model fv", "2537a6af60d3"),
        ("--sig stlc --depth 3 --max-sort-depth 1 --model fv", "12387914c0f8"),
        ("--sig pcf --depth 2 --max-sort-depth 1 --model fv", "f04910384514"),
    ],
)
def test_law_records_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "laws", *argv.split(), "--format", "records")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


def test_subst_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "subst",
        "--sig", "ulc",
        "--ctx", "1",
        "--term", "(op app (var 0) (op abs (var 1)))",
        "--assign", "(assign (op abs (var 0)))",
        "--target", "0",
    )
    assert code == 0
    assert out.strip() == "(op app (op abs (var 0)) (op abs (op abs (var 0))))"


def test_subst_identity_echoes(capsys):
    term = "(op app (var 0) (var 1))"
    code, out, _ = run(
        capsys,
        "subst",
        "--sig", "ulc",
        "--ctx", "2",
        "--term", term,
        "--assign", "(assign (var 0) (var 1))",
    )
    assert code == 0 and out.strip() == term


def test_subst_wrong_assignment_length(capsys):
    code, _out, err = run(
        capsys,
        "subst",
        "--sig", "ulc",
        "--ctx", "2",
        "--term", "(var 0)",
        "--assign", "(assign (var 0))",
    )
    assert code == 1 and "ContextMismatch" in err


# ---------------------------------------------------------------------------
# translate / fv


def test_translate_fol2ll(capsys):
    code, out, _ = run(
        capsys,
        "translate",
        "--table", "fol2ll",
        "--ctx", "0",
        "(op imp (op top) (op bot))",
    )
    assert code == 0
    assert out.strip() == "(op lolli (op bang (op top)) (op bot))"


def test_translate_erasure(capsys):
    code, out, _ = run(
        capsys,
        "translate",
        "--table", "stlc2ulc",
        "--ctx", "0",
        "(op abs<iota,iota> (var 0))",
    )
    assert code == 0 and out.strip() == "(op abs (var 0))"


def test_translate_table_file(tmp_path, capsys):
    f = tmp_path / "idulc.tbl"
    f.write_text(
        "translate ulc -> ulc\n"
        "clause app = (op app (ph 0) (ph 1))\n"
        "clause abs = (op abs (ph 0))\n"
    )
    code, out, _ = run(capsys, "translate", "--table", str(f), "--ctx", "1", "(op abs (var 1))")
    assert code == 0 and out.strip() == "(op abs (var 1))"


def test_translate_table_naming_a_signature_file(tmp_path, capsys):
    sig = tmp_path / "mini.sig"
    sig.write_text("signature mini\nop lam : ([*] *) -> *\nop ap : (*, *) -> *\n")
    f = tmp_path / "mini2ulc.tbl"
    f.write_text(
        f"translate {sig} -> ulc\n"
        "clause lam = (op abs (ph 0))\n"
        "clause ap = (op app (ph 0) (ph 1))\n"
    )
    term = "(op lam (op ap (var 0) (var 1)))"
    code, out, err = run(capsys, "translate", "--table", str(f), "--ctx", "1", term)
    assert (code, out, err) == (0, "(op abs (op app (var 0) (var 1)))\n", "")


def test_translate_clause_ill_sorted_at_instantiation(tmp_path, capsys):
    # app<iota,t> checks at the spot instantiation s = iota, not at s = arrow(iota,iota)
    f = tmp_path / "bad.tbl"
    f.write_text(
        "translate stlc -> stlc\n"
        "clause app<s,t> = (op app<iota,t> (ph 0) (ph 1))\n"
        "clause abs<s,t> = (op abs<s,t> (ph 0))\n"
    )
    ctx = "(ctx arrow(arrow(iota,iota),iota) arrow(iota,iota))"
    term = "(op app<arrow(iota,iota),iota> (var 0) (var 1))"
    code, out, err = run(capsys, "translate", "--table", str(f), "--ctx", ctx, term)
    assert code == 1 and out == ""
    assert err.startswith("SortMismatch: ") and err.count("\n") == 1


def test_fv_example(capsys):
    code, out, _ = run(capsys, "fv", "--ctx", "2", "(op app (var 0) (op abs (var 1)))")
    assert code == 0 and out.strip() == "{0}"


def test_fv_closed(capsys):
    code, out, _ = run(capsys, "fv", "--ctx", "0", "(op abs (op abs (var 1)))")
    assert code == 0 and out.strip() == "{}"


def test_fv_on_a_typed_signature(capsys):
    code, out, err = run(capsys, "fv", "--sig", "pcf", "--ctx", "(ctx nat)", "(op abs<bool,nat> (var 1))")
    assert (code, out, err) == (0, "{0}\n", "")


def test_fv_ill_scoped_term(capsys):
    code, _out, err = run(capsys, "fv", "--ctx", "0", "(var 3)")
    assert code == 1 and "IllFormed" in err


def test_term_flag_and_positional_agree(capsys):
    code1, out1, _ = run(capsys, "fv", "--ctx", "2", "--term", "(var 1)")
    code2, out2, _ = run(capsys, "fv", "--ctx", "2", "(var 1)")
    assert (code1, out1) == (code2, out2)


def test_deeply_nested_sort_is_read(capsys):
    sort = "iota"
    for _ in range(3000):
        sort = f"arrow(iota,{sort})"
    code, out, err = run(
        capsys, "enum", "--sig", "stlc", "--max-sort-depth", "0", "--depth", "1", "--sort", sort
    )
    assert (code, out, err) == (0, "", "")


def test_deep_enumeration_is_counted(capsys):
    # the chain's cells are filled on an explicit stack
    code, out, err = run(capsys, "enum", "--sig", "nat", "--ctx", "0", "--depth", "3000", "--count")
    assert (code, out, err) == (0, "3000\n", "")


@pytest.mark.parametrize("depth", [16, 20])
def test_counts_of_any_size_are_printed(capsys, depth):
    # past the interpreter's int-to-str limit (4 300 digits) from depth 16 on
    expected = ulc_stage_count(depth, 0)
    code, out, err = run(capsys, "enum", "--sig", "ulc", "--ctx", "0", "--depth", str(depth), "--count")
    assert (code, err) == (0, "") and Decimal(out) == expected and out == out.strip() + "\n"
    code, out, err = run(capsys, "chain", "--sig", "ulc", "--depth", str(depth), "--format", "records")
    records = [json.loads(line) for line in out.splitlines()]
    assert (code, err, len(records)) == (0, "", depth + 1)
    for k, record in enumerate(records):
        assert record["stage"] == k and Decimal(record["count"]) == ulc_stage_count(k, 0)
    code, out, err = run(capsys, "chain", "--sig", "ulc", "--depth", str(depth))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"{depth} {records[-1]['count']}"


@pytest.mark.parametrize(
    "argv, where",
    [
        (["fv", "--ctx", "0", "(var " + "7" * 5000 + ")"], "1:6"),
        (["fv", "--ctx", "0", "(op app (var 0)\n (var " + "1" * 4301 + "))"], "2:7"),
        (["fv", "--ctx", "1" + "0" * 5000, "(var 0)"], "1:1"),
        (["fv", "--sig", "pcf", "--ctx", "0", "(op k<" + "1" * 5000 + ">)"], "1:7"),
    ],
    ids=["var-index", "var-index-on-line-2", "context-size", "nat-parameter"],
)
def test_numerals_python_refuses_are_parse_errors(capsys, argv, where):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"ParseError: {where}: numeral too long: ") and err.count("\n") == 1


def test_context_size_must_be_a_decimal_numeral(capsys):
    # '²' is a digit to str.isdigit() but no decimal: the scanner reports it
    code, out, err = run(capsys, "fv", "--ctx", "²", "(var 0)")
    assert (code, out, err) == (1, "", "ParseError: 1:1: unexpected character '²'\n")


def test_context_too_large_to_build_is_one_line(capsys):
    code, out, err = run(capsys, "fv", "--ctx", "99999999999999999999", "(var 0)")
    message = "resource error: OverflowError: input too large or nested too deeply\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_resource_error_is_one_line(capsys, monkeypatch, error):
    def exhausted(*args):
        raise error()

    monkeypatch.setattr("bindsig.cli.chain_count", exhausted)
    code, out, err = run(capsys, "enum", "--sig", "nat", "--ctx", "0", "--depth", "3", "--count")
    message = f"resource error: {error.__name__}: input too large or nested too deeply\n"
    assert (code, out, err) == (2, "", message)
