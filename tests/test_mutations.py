"""Seeded mutation fuzzing of the inputs: annotations.jsonl,
detections.jsonl, the config file, and the binary feature (.ptfv) and
checkpoint (.ptck) files (mutation-based fuzzing after Godefroid, "Fuzzing:
Hack, Art, and Science", CACM 2020).

Each case breaks one line of a valid text file, or the bytes of a valid
binary file, in one way that makes it invalid. `cli.main` must then exit 2
and name the place (`path:line`, the setting for a config file, the path
for a binary file), never exit 0 and never raise.
"""

import json
import math
import shutil
import struct

import numpy as np
import pytest

from taldet.cli import EXIT_OK, EXIT_VALIDATION, SETTING_TYPES, main
from taldet.dataio import read_annotations, write_detections
from taldet.postprocess import ActionSegment

CASES = 6   # seeded cases per (file, mutation)

# mutations of any line, and of one value in a record
LINE_MUTATIONS = ["truncated", "not-a-record", "unknown-field"]
JSON_MUTATIONS = ["dropped-field", "duplicated-field"]
VALUE_MUTATIONS = ["string", "list", "bool", "nan", "inf", "-inf", "zero",
                   "negative", "non-integral", "non-string-id"]
# mutations of a binary file: a flipped bit in the magic, the version or a
# dimension field, and a NaN in place of one payload value
BINARY_MUTATIONS = ["truncated", "magic", "version", "dimension", "trailing",
                    "nan"]
MUTATIONS = (LINE_MUTATIONS + JSON_MUTATIONS + VALUE_MUTATIONS
             + BINARY_MUTATIONS[1:])

NOT_JSON = ["not json", "{", "}", "[1, 2]", "null", "42", '"text"', "NaN",
            "{'id': 1}", '{"id": "a"} {"id": "b"}']
NOT_KEY_VALUE = ["not a setting", "K: 2", "[model]", "epochs 3"]

CONFIG = {"seed": "0", "K": "2", "group_layers": "1", "group_heads": "2",
          "temporal_heads": "2", "window_size": "3",
          "num_standard_layers": "1", "num_strided_layers": "2",
          "epochs": "3", "warmup_epochs": "1", "lr_init": "0.001",
          "batch_size": "2", "sigma": "0.5", "strict_positive_only": "false"}
# settings whose value is invalid at 0, and at any negative value
ZERO_INVALID = {"feature_dim", "num_classes", "K", "group_heads",
                "temporal_heads", "window_size", "alpha", "epochs",
                "batch_size", "sigma"}
NEGATIVE_INVALID = {k for k, t in SETTING_TYPES.items()
                    if t is not bool} - {"score_threshold"}


def annotation_leaves(obj):
    """(path, type, invalid at 0, invalid when negative) of each value of
    an annotation record; the synthetic boxes have x1, y1 >= 0, so a zero
    x2 or y2 is degenerate."""
    out = [(("id",), str, False, False), (("fps",), float, True, True)]
    out += [((k,), int, True, True)
            for k in ("frame_width", "frame_height", "snippet_stride")]
    for j in range(len(obj["segments"])):
        out += [(("segments", j, 0), int, False, True),
                (("segments", j, 1), float, False, True),
                (("segments", j, 2), float, True, True)]
    for t, snippet in enumerate(obj["boxes"]):
        for b in range(len(snippet)):
            out += [(("boxes", t, b, i), float, i in (2, 3), i in (2, 3))
                    for i in range(5)]
    return out


def detection_leaves(obj):
    """As annotation_leaves; every base detection starts after 0, so a
    zero end precedes its start; a negative class id or start is valid."""
    return [(("video_id",), str, False, False),
            (("class_id",), int, False, False),
            (("score",), float, False, True),
            (("start",), float, False, False),
            (("end",), float, True, True)]


def mutate_value(rng, kind, value, want, zero_bad, negative_bad):
    """The replacement for `value` under `kind`, or None where the
    mutation does not apply to it or would leave it valid."""
    if want is str:
        return ([3, 3.5, True, [value], {}, ""][rng.integers(6)]
                if kind == "non-string-id" else None)
    return {"string": str(value), "list": [value],
            "bool": bool(rng.integers(2)), "nan": math.nan, "inf": math.inf,
            "-inf": -math.inf,
            "zero": want(0) if zero_bad else None,
            "negative": -abs(value) - 1 if negative_bad else None,
            "non-integral": value + 0.5 if want is int else None,
            }.get(kind)


def set_path(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def get_path(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def mutate_jsonl(rng, lines, kind, leaves):
    """A copy of `lines` with one line broken by `kind`, and that line's
    index."""
    i = int(rng.integers(len(lines)))
    obj = json.loads(lines[i])
    if kind == "truncated":
        text = lines[i][:rng.integers(1, len(lines[i]))]
    elif kind == "not-a-record":
        text = NOT_JSON[rng.integers(len(NOT_JSON))]
    elif kind == "unknown-field":
        text = json.dumps(obj | {"extra": 1})
    elif kind == "dropped-field":
        del obj[sorted(obj)[rng.integers(len(obj))]]
        text = json.dumps(obj)
    elif kind == "duplicated-field":
        key = sorted(obj)[rng.integers(len(obj))]
        text = json.dumps(obj)[:-1] + f", {json.dumps(key)}: " \
            f"{json.dumps(obj[key])}}}"
    else:
        # a field first, then one of its values: the boxes would otherwise
        # take nearly every case
        options = {}
        for path, want, zero_bad, negative_bad in leaves(obj):
            new = mutate_value(rng, kind, get_path(obj, path), want,
                               zero_bad, negative_bad)
            if new is not None:
                options.setdefault(path[0], []).append((path, new))
        field = sorted(options)[rng.integers(len(options))]
        path, new = options[field][rng.integers(len(options[field]))]
        set_path(obj, path, new)
        text = json.dumps(obj)
    return lines[:i] + [text] + lines[i + 1:], i


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A valid two-video synthetic set and a detections file holding one
    detection per ground truth; `eval` and `infer` accept both."""
    root = tmp_path_factory.mktemp("base")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "5",
                 "--videos", "2"]) == EXIT_OK
    records = read_annotations(data / "annotations.jsonl")
    assert all(s.start > 0 for r in records for s in r.segments)
    write_detections(root / "detections.jsonl", {
        r.id: [ActionSegment(s.class_id, 0.9, s.start, s.end)
               for s in r.segments] for r in records})
    assert main(["eval", "--data", str(data), "--detections",
                 str(root / "detections.jsonl")]) == EXIT_OK
    return data, root / "detections.jsonl"


def cases(file_index, kind):
    """Seeded generators of one (file, mutation) pair's cases."""
    return [np.random.default_rng([file_index, MUTATIONS.index(kind), n])
            for n in range(CASES)]


@pytest.mark.parametrize("which", ["annotations", "detections"])
@pytest.mark.parametrize("kind", LINE_MUTATIONS + JSON_MUTATIONS
                         + VALUE_MUTATIONS)
def test_broken_jsonl_line_exits_2_naming_it(base, tmp_path, capsys, which,
                                             kind):
    data, dets = base
    source = data / "annotations.jsonl" if which == "annotations" else dets
    leaves = (annotation_leaves if which == "annotations"
              else detection_leaves)
    lines = source.read_text().splitlines()
    for n, rng in enumerate(cases(which == "detections", kind)):
        broken, i = mutate_jsonl(rng, lines, kind, leaves)
        case = tmp_path / str(n)
        case.mkdir()
        target = case / source.name
        target.write_text("".join(line + "\n" for line in broken))
        argv = ["eval", "--data", str(case if which == "annotations"
                                      else data),
                "--detections", str(target if which == "detections"
                                     else dets)]
        assert main(argv) == EXIT_VALIDATION, broken[i][:300]
        err = capsys.readouterr().err
        assert f"{target}:{i + 1}: " in err, (broken[i][:300], err)


def mutate_config(rng, kind):
    """Config lines with one setting broken by `kind`, and the names a
    correct error may give: the setting, or `:line:` of the broken line."""
    settings = dict(CONFIG)
    if kind in ("truncated", "not-a-record"):
        lines = [f"{k} = {v}" for k, v in settings.items()]
        i = int(rng.integers(len(lines)))
        key = lines[i].split(" ")[0]
        # cut before the value: a shorter number may still be valid
        lines[i] = (lines[i][:rng.integers(1, lines[i].index("=") + 2)]
                    if kind == "truncated"
                    else NOT_KEY_VALUE[rng.integers(len(NOT_KEY_VALUE))])
        return lines, (key, f":{i + 1}:")
    if kind == "unknown-field":
        return [f"{k} = {v}" for k, v in settings.items()] + \
            ["windw_size = 5"], ("windw_size",)
    choices = []
    for key, want in sorted(SETTING_TYPES.items()):
        if want is bool:
            bad = {"string": "yes", "list": "[true]", "bool": None,
                   "nan": "nan", "inf": "inf", "-inf": "-inf", "zero": "0",
                   "negative": "-1", "non-integral": "0.5"}.get(kind)
        else:
            bad = {"string": "abc", "list": "[3]", "bool": "true",
                   "nan": "nan", "inf": "inf", "-inf": "-inf",
                   "zero": "0" if key in ZERO_INVALID else None,
                   "negative": "-3" if key in NEGATIVE_INVALID else None,
                   "non-integral": "2.5" if want is int else None,
                   }.get(kind)
        if bad is not None:
            choices.append((key, bad))
    key, bad = choices[rng.integers(len(choices))]
    settings[key] = bad
    return [f"{k} = {v}" for k, v in settings.items()], (key,)


# no setting is a string, so "non-string-id" has nothing to break
@pytest.mark.parametrize("kind", LINE_MUTATIONS + VALUE_MUTATIONS[:-1])
def test_broken_config_exits_2_naming_the_setting(base, tmp_path, capsys,
                                                  kind):
    # a dropped setting keeps its default and a repeated one is overridden
    # by its last line, so neither is a mutation here
    data, _ = base
    for n, rng in enumerate(cases(2, kind)):
        lines, names = mutate_config(rng, kind)
        cfg = tmp_path / f"{n}.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        # settings are checked before the (missing) checkpoint is read
        rc = main(["infer", "--data", str(data), "--config", str(cfg),
                   "--checkpoint", str(tmp_path / "unread.ptck"),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION, lines
        assert any(name in err for name in names), (lines, err)
        assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def checkpoint(base, tmp_path_factory):
    """A config and the checkpoint `train` writes with it on the base set;
    `infer` accepts both."""
    data, _ = base
    root = tmp_path_factory.mktemp("checkpoint")
    cfg = root / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in CONFIG.items()))
    common = ["--data", str(data), "--config", str(cfg), "--out", str(root)]
    assert main(["train", *common]) == EXIT_OK
    assert main(["infer", "--checkpoint", str(root / "checkpoint.ptck"),
                 *common]) == EXIT_OK
    return cfg, root / "checkpoint.ptck"


def feature_fields(raw):
    """Offsets of a feature file's dimension fields (T, H, W, D) and of its
    float32 payload values."""
    return list(range(8, 24, 4)), list(range(24, len(raw), 4))


def checkpoint_fields(raw):
    """Offsets of a checkpoint's dimension fields (the entry count, and
    each entry's rank and shape) and of its float32 payload values."""
    dims, values, off = [8], [], 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        off += 4 + struct.unpack_from("<I", raw, off)[0]
        (ndim,) = struct.unpack_from("<I", raw, off)
        dims += range(off, off + 4 * (ndim + 1), 4)
        off += 4 * (ndim + 1)
        n = math.prod(struct.unpack_from(f"<{ndim}I", raw, off - 4 * ndim))
        values += range(off, off + 4 * n, 4)
        off += 4 * n
    assert off == len(raw)
    return dims, values


def mutate_binary(rng, raw, kind, fields):
    """A copy of the bytes `raw` broken by `kind`."""
    dims, values = fields(raw)
    raw = bytearray(raw)
    if kind == "truncated":
        return raw[:rng.integers(len(raw))]
    if kind == "trailing":
        return raw + rng.bytes(int(rng.integers(1, 9)))
    if kind == "nan":
        at = values[rng.integers(len(values))]
        raw[at:at + 4] = struct.pack("<f", math.nan)
        return raw
    field = {"magic": 0, "version": 4,
             "dimension": dims[rng.integers(len(dims))]}[kind]
    raw[field + rng.integers(4)] ^= 1 << int(rng.integers(8))
    return raw


@pytest.mark.parametrize("which", ["features", "checkpoint"])
@pytest.mark.parametrize("kind", BINARY_MUTATIONS)
def test_broken_binary_file_exits_2_naming_it(base, checkpoint, tmp_path,
                                              capsys, which, kind):
    data, _ = base
    cfg, good = checkpoint
    for n, rng in enumerate(cases(3 + (which == "checkpoint"), kind)):
        case = tmp_path / str(n)
        if which == "features":
            shutil.copytree(data, case)
            video = sorted((case / "features").iterdir())
            target = video[rng.integers(len(video))]
            source, fields, ckpt = target, feature_fields, good
        else:
            case.mkdir()
            target = ckpt = case / good.name
            source, fields = good, checkpoint_fields
        target.write_bytes(mutate_binary(rng, source.read_bytes(), kind,
                                         fields))
        rc = main(["infer", "--data", str(case if which == "features"
                                          else data),
                   "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION, (n, err)
        assert str(target) in err, (n, err)
        assert not (tmp_path / "run").exists()
