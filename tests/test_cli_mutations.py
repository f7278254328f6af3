"""The exit-code contract under hostile documents: every JSON path of the
golden documents, replaced by each hostile value, makes ``check``,
``ring`` and ``chern`` exit 0, 1, 2 or 3, and no exception escapes."""

import copy
import json
from pathlib import Path

from hamfix.cli import main

DATA_DIR = Path(__file__).parent / "data"

HOSTILE = (True, None, 1.5, "", "x", "1/0", "1e999999", [], {}, "7" * 5000)


def _paths(node, path=()):
    yield path
    if isinstance(node, list):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_mutated_golden_documents_keep_the_exit_code_contract(tmp_path, capsys):
    target = tmp_path / "mutated.json"
    seen = set()
    for name in ("cp2.golden.json", "q3_meta.golden.json"):
        doc = json.loads((DATA_DIR / name).read_text(encoding="utf-8"))
        for path in _paths(doc):
            for value in HOSTILE:
                target.write_text(json.dumps(_replaced(doc, path, value)), encoding="utf-8")
                for command in ("check", "ring", "chern"):
                    code = main([command, str(target)])
                    assert code in (0, 1, 2, 3), (name, path, value, command)
                    seen.add(code)
        capsys.readouterr()
    assert {0, 2} <= seen  # an edit inside meta passes; the rest are refused


def test_deeply_nested_documents_exit_2(tmp_path, capsys):
    # 10^5 nested arrays, written as raw text since json.dumps cannot
    # serialize that depth: as the document, as a weight and as a meta value.
    deep = "[" * 10**5 + "]" * 10**5
    text = (DATA_DIR / "q3_meta.golden.json").read_text(encoding="utf-8")
    documents = {
        "root": deep,
        "weights": text.replace('"weights": [1, 2, 3]', f'"weights": [{deep}, 2, 3]', 1),
        "meta": text.replace('"golden fixture"', deep, 1),
    }
    assert len(set(documents.values()) | {text}) == 4
    target = tmp_path / "deep.json"
    for place, document in documents.items():
        target.write_text(document, encoding="utf-8")
        for command in ("check", "ring", "chern"):
            assert main([command, str(target)]) == 2, (place, command)
            assert capsys.readouterr().err.startswith("error: $: unreadable JSON: "), (place, command)
