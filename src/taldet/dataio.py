"""File formats (features, annotations, detections, checkpoints) and the
seeded synthetic dataset generator.

Binary formats share one header discipline: 4-byte magic, little-endian u32
version, then u32 dimensions, then a float32 payload. Annotations and
detections are line-delimited JSON records so fixtures diff cleanly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import reprlib
import struct
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .heads import GroundTruthSegment
from .postprocess import ActionSegment
from .subjects import AnnotationRecord, Boxes, SubjectBox

FEATURE_MAGIC = b"PTFV"
CHECKPOINT_MAGIC = b"PTCK"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed binary or record file."""


class ValidationError(ValueError):
    """Well-formed file with invalid content."""


# -- feature files -----------------------------------------------------------


def write_features(path, payload: np.ndarray) -> None:
    """payload: [T, H, W, D] floats, stored as float32 row-major."""
    arr = np.ascontiguousarray(payload, dtype=np.float32)
    if arr.ndim != 4:
        raise ValidationError("feature payload must be T x H x W x D")
    if not np.isfinite(arr).all():
        raise ValidationError("feature payload contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<5I", FORMAT_VERSION, *arr.shape))
        fh.write(arr.tobytes())


def read_features(path) -> np.ndarray:
    """Returns the [T, H, W, D] grid promoted to float64."""
    raw = Path(path).read_bytes()
    if len(raw) < 24:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r} at offset 0")
    version, T, H, W, D = struct.unpack("<5I", raw[4:24])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    if not T * H * W * D:
        raise FormatError(f"{path}: a zero dimension in {T} x {H} x {W} x {D}")
    expected = 24 + 4 * T * H * W * D
    if len(raw) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes, found {len(raw)}")
    arr = np.frombuffer(raw, dtype="<f4", offset=24).reshape(T, H, W, D)
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: non-finite payload")
    return arr.astype(np.float64)


# -- values read from outside ------------------------------------------------

# the types each scalar type takes, told apart by type(), not isinstance,
# so that a bool (a subclass of int) is never a number
_ACCEPTED = {int: {int}, float: {int, float}, bool: {bool}, str: {str}}


def _refuse(values: list, bad, what: str):
    raise ValueError(f"{reprlib.repr(next(filter(bad, values)))} is not "
                     f"{what}")


def _only(values: list, accepted: set, what: str) -> set:
    """The types of `values`; refuses the first value of another type."""
    types = set(map(type, values))
    if not types <= accepted:
        _refuse(values, lambda v: type(v) not in accepted, what)
    return types


# a record type's fields and their types (evaluating the hints takes longer
# than reading a short file)
_hints = functools.cache(typing.get_type_hints)


@functools.cache
def parser(want):
    """The parse of a column: a list of values read from outside, each as
    type `want`. An int takes an integer (never a bool or `2.0`), a float an
    integer or a finite float, a bool a bool, a str a non-empty string,
    `list[X]` a list of X, a dataclass a list of exactly its fields, in
    order, and Boxes one list per snippet of boxes, each a SubjectBox. Each
    check runs over the whole column at once. The parse raises
    ValueError naming the first bad value; `parser` raises TypeError for a
    type it does not handle."""
    if want is Boxes:
        return _parse_boxes
    if typing.get_origin(want) is list:
        item = parser(*typing.get_args(want))

        def parse_lists(values):
            _only(values, {list}, "a list")
            ends = list(itertools.accumulate(map(len, values), initial=0))
            items = item(list(itertools.chain.from_iterable(values)))
            return list(map(items.__getitem__, map(slice, ends, ends[1:])))
        return parse_lists
    if dataclasses.is_dataclass(want):
        hints = _hints(want)
        fields = [parser(t) for t in hints.values()]
        what = f"[{', '.join(hints)}]"

        def parse_records(values):
            _only(values, {list}, what)
            if not set(map(len, values)) <= {len(fields)}:
                _refuse(values, lambda v: len(v) != len(fields), what)
            columns = zip(*values) if values else [()] * len(fields)
            return list(map(want, *[parse(list(column)) for parse, column
                                    in zip(fields, columns)]))
        return parse_records
    if want not in _ACCEPTED:
        raise TypeError(f"no parse for values of type {want!r}")

    def parse_scalars(values):
        types = _only(values, _ACCEPTED[want], want.__name__)
        if want is float and int in types:
            try:
                values = list(map(float, values))
            except OverflowError:
                _refuse(values, lambda v: abs(v) > sys.float_info.max,
                        "finite")
        if want is float and not all(map(math.isfinite, values)):
            _refuse(values, lambda v: not math.isfinite(v), "finite")
        if want is str and not all(values):
            _refuse(values, lambda v: not v, "str")
        return values
    return parse_scalars


def _parse_boxes(values):
    """The Boxes of each value, a list per snippet of [x1, y1, x2, y2,
    confidence] boxes, refused as a `list[list[SubjectBox]]` parse refuses
    them, with the same message, without building a SubjectBox."""
    what = f"[{', '.join(_hints(SubjectBox))}]"
    _only(values, {list}, "a list")
    snippets = list(itertools.chain.from_iterable(values))
    _only(snippets, {list}, "a list")
    boxes = list(itertools.chain.from_iterable(snippets))
    _only(boxes, {list}, what)
    if not set(map(len, boxes)) <= {5}:
        _refuse(boxes, lambda v: len(v) != 5, what)
    numbers = list(itertools.chain.from_iterable(boxes))
    if not set(map(type, numbers)) <= {float}:
        # one coordinate at a time over every box, to name the value that
        # parse names first
        for column in zip(*boxes):
            parser(float)(list(column))
    rows = np.fromiter(numbers, float, len(numbers)).reshape(-1, 5)
    counts = np.fromiter(map(len, snippets), int, len(snippets))
    # where each value's snippets and boxes start, then where the last ends
    snippet_at = list(itertools.accumulate(map(len, values), initial=0))
    box_at = np.concatenate(([0], np.cumsum(counts)))[snippet_at]
    return [Boxes(rows[b0:b1], counts[t0:t1]) for t0, t1, b0, b1
            in zip(snippet_at, snippet_at[1:], box_at, box_at[1:])]


def parse_scalar(want: type, value):
    """One value read from outside, such as a setting, as a `want`."""
    return parser(want)([value])[0]


# objects decode as tuples of (key, value) pairs, to see a repeated key;
# arrays stay lists
_DECODER = json.JSONDecoder(object_pairs_hook=tuple)
# lines parsed together, few enough that a column's lists stay short: the
# garbage collector runs every few hundred new objects and walks each young
# list item by item. Over 64 KiB of lines those walks doubled the time to
# build long's eval-large boxes while each box was an object; as Boxes rows
# they read about as fast either way. A whole file at once also held every
# decoded line beside the records, doubling the peak.
_CHUNK_BYTES = 1 << 12


def _record(text: str, keys) -> dict:
    """The object one line holds, with exactly the fields `keys`."""
    try:
        pairs, end = _DECODER.raw_decode(text)
        if end != len(text):
            raise ValueError(f"extra data at column {end + 1}")
    except ValueError as e:
        raise FormatError(f"invalid record: {e}") from None
    if type(pairs) is not tuple:
        raise FormatError("invalid record: not an object")
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValidationError("a field appears twice")
    if obj.keys() != keys:
        unknown, missing = obj.keys() - keys, keys - obj.keys()
        raise ValidationError(f"unknown fields {sorted(unknown)}" if unknown
                              else f"missing fields {sorted(missing)}")
    return obj


def _read_jsonl(path, hints: dict, build) -> list:
    """`build(*fields)` for every non-blank line of a JSONL file, each line
    one object holding exactly the fields named in `hints`, each parsed as
    its type. The first bad line raises FormatError or ValidationError as
    `path:line: field: problem`, or `path:line: problem` for the line."""
    parsers = {key: parser(want) for key, want in hints.items()}
    out, lines, size = [], [], 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                lines.append((lineno, _record(text, parsers.keys())))
            except ValueError as e:
                # the values of the lines before are checked first
                _parse_lines(path, lines, parsers, build)
                raise type(e)(f"{path}:{lineno}: {e}") from None
            size += len(text)
            if size >= _CHUNK_BYTES:
                out += _parse_lines(path, lines, parsers, build)
                lines, size = [], 0
    return out + _parse_lines(path, lines, parsers, build)


def _parse_lines(path, lines: list, parsers: dict, build) -> list:
    """`build(*fields)` for each (line number, object) of `lines`, parsed
    one field at a time over all of them; the first bad line raises
    ValidationError naming it."""
    try:
        return list(map(build, *[parse([obj[key] for _, obj in lines])
                                 for key, parse in parsers.items()]))
    except ValueError as e:
        if len(lines) > 1:
            # again one line at a time, to name the bad one
            return [record for line in lines
                    for record in _parse_lines(path, [line], parsers, build)]
        lineno, obj = lines[0]
        for key, parse in parsers.items():
            try:
                parse([obj[key]])
            except ValueError as field_error:
                raise ValidationError(f"{path}:{lineno}: {key}: "
                                      f"{field_error}") from None
        raise ValidationError(f"{path}:{lineno}: {e}") from None


# -- annotations -------------------------------------------------------------


def write_annotations(path, records: list[AnnotationRecord]) -> None:
    with open(path, "w") as fh:
        for r in records:
            rows = r.boxes.rows.tolist()   # float rows, as the file holds
            ends = list(itertools.accumulate(r.boxes.counts.tolist(),
                                             initial=0))
            obj = {
                "id": r.id,
                "fps": r.fps,
                "frame_width": r.frame_width,
                "frame_height": r.frame_height,
                "snippet_stride": r.snippet_stride,
                # times serialize as floats so write -> read -> write
                # reproduces the bytes even when records hold ints
                "segments": [[int(s.class_id), float(s.start), float(s.end)]
                             for s in r.segments],
                "boxes": [rows[a:b] for a, b in zip(ends, ends[1:])],
            }
            fh.write(json.dumps(obj) + "\n")


def read_annotations(path) -> list[AnnotationRecord]:
    """Every record of an annotations file, its fields those of
    AnnotationRecord; a segment is [class_id, start, end], and `boxes` one
    list per snippet of [x1, y1, x2, y2, confidence] boxes, read straight
    into Boxes. No two records share an id."""
    records = _read_jsonl(path, _hints(AnnotationRecord), AnnotationRecord)
    index_of = {}
    for i, record in enumerate(records):
        first = index_of.setdefault(record.id, i)
        if first != i:
            # the records are the file's non-blank lines, in order
            with open(path) as fh:
                lineno = [n for n, line in enumerate(fh, 1) if line.strip()]
            raise ValidationError(f"{path}:{lineno[i]}: id: {record.id!r} "
                                  f"is also the id on line {lineno[first]}")
    return records


# -- detections --------------------------------------------------------------

def write_detections(path, dets_by_video: dict[str, list[ActionSegment]]) -> None:
    with open(path, "w") as fh:
        for vid in sorted(dets_by_video):
            for d in dets_by_video[vid]:
                fh.write(json.dumps({"video_id": vid, "class_id": d.class_id,
                                     "score": d.score, "start": d.start,
                                     "end": d.end}) + "\n")


def read_detections(path) -> dict[str, list[ActionSegment]]:
    """Every detection of a detections file by video; a line holds its
    video's id and the fields of its ActionSegment."""
    hints = {"video_id": str} | _hints(ActionSegment)
    out: dict[str, list[ActionSegment]] = {}

    def add(video_id, *segment):
        out.setdefault(video_id, []).append(ActionSegment(*segment))
    _read_jsonl(path, hints, add)
    return out


# -- checkpoints -------------------------------------------------------------


def write_checkpoint(path, named_arrays: list[tuple[str, np.ndarray]]) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<2I", FORMAT_VERSION, len(named_arrays)))
        for name, arr in named_arrays:
            arr32 = np.ascontiguousarray(arr, dtype=np.float32)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr32.ndim))
            fh.write(struct.pack(f"<{arr32.ndim}I", *arr32.shape))
            fh.write(arr32.tobytes())


def read_checkpoint(path) -> list[tuple[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint header")
    version, count = struct.unpack("<2I", raw[4:12])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    off = 12
    out = []
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", raw, off); off += 4
            name = raw[off:off + nlen].decode("utf-8"); off += nlen
            (ndim,) = struct.unpack_from("<I", raw, off); off += 4
            shape = struct.unpack_from(f"<{ndim}I", raw, off); off += 4 * ndim
            arr = np.frombuffer(raw, "<f4", math.prod(shape), off)
            off += arr.nbytes
            out.append((name, arr.reshape(shape)))
    # ValueError: a name not UTF-8, a short payload or too many dimensions;
    # OverflowError: a payload larger than any buffer
    except (struct.error, ValueError, OverflowError):
        raise FormatError(f"{path}: truncated or malformed checkpoint entry "
                          f"at offset {off}") from None
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes")
    for name, arr in out:
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: non-finite values in entry {name}")
    return [(name, arr.astype(np.float64)) for name, arr in out]


# -- synthetic dataset -------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    num_videos: int = 8
    num_classes: int = 2
    snippets_min: int = 28
    snippets_max: int = 36
    subjects_min: int = 1
    subjects_max: int = 3
    noise: float = 0.0
    grid: int = 4
    feature_dim: int = 16
    frame_size: int = 64
    fps: float = 15.0
    snippet_stride: int = 4

    def __post_init__(self):
        # a video's fallback action spans snippets 2 to T - 2, and a box
        # covers 2 x 2 cells
        for key, low in (("num_videos", 1), ("num_classes", 1), ("seed", 0),
                         ("snippets_min", 5),
                         ("snippets_max", self.snippets_min), ("grid", 2),
                         ("subjects_min", 0),
                         ("subjects_max", self.subjects_min)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")
        if not 0 <= self.noise < math.inf:
            raise ValueError("noise must be finite and >= 0")

    def to_json(self) -> str:
        return json.dumps(vars(self) | {}, sort_keys=True)


def synthetic_videos(spec: SyntheticSpec):
    """Yield each video of the deterministic dataset `spec` describes, in
    order, as its record and its feature grid [T, G, G, D]. Subject-box
    cells carry a clean class signal, while background cells cancel them,
    so every snippet's global spatial average is one scene vector: subject
    pooling is informative and global pooling is confounded.

    A box that would cover a snippet's last background cell is drawn but
    not placed, so the cancelling never runs out of cells and no snippet's
    average carries its class. Its draws are still made, so the rest of the
    stream is unchanged. No box is dropped when the boxes cannot cover the
    grid, as 1-3 boxes of 2 x 2 cells cannot cover the default 4 x 4 one.
    """
    rng = np.random.default_rng(spec.seed)
    G, D, C = spec.grid, spec.feature_dim, spec.num_classes
    cell_px = spec.frame_size / G

    signals = rng.normal(size=(C, D))
    signals *= 3.0 / np.linalg.norm(signals, axis=1, keepdims=True)
    idle = rng.normal(size=D)
    idle *= 1.5 / np.linalg.norm(idle)
    scene = rng.normal(size=D)
    scene *= 1.0 / np.linalg.norm(scene)

    for v in range(spec.num_videos):
        T = int(rng.integers(spec.snippets_min, spec.snippets_max + 1))
        # 1-2 non-overlapping segments in snippet units
        n_seg = int(rng.integers(1, 3))
        spans, cursor = [], 2
        for _ in range(n_seg):
            length = int(rng.integers(6, 13))
            start = cursor + int(rng.integers(0, 4))
            if start + length > T - 2:
                break
            spans.append((start, start + length, int(rng.integers(0, C))))
            cursor = start + length + 3
        if not spans:
            spans = [(2, min(T - 2, 10), int(rng.integers(0, C)))]

        feats = np.zeros((T, G, G, D), dtype=np.float64)
        boxes: list[list[SubjectBox]] = []
        for t in range(T):
            active = next((c for s, e, c in spans if s <= t <= e), None)
            n_boxes = int(rng.integers(spec.subjects_min, spec.subjects_max + 1))
            snippet_boxes = []
            content = idle if active is None else signals[active]
            covered = np.zeros((G, G), dtype=bool)
            for _ in range(n_boxes):
                r0 = int(rng.integers(0, G - 1))
                c0 = int(rng.integers(0, G - 1))
                confidence = round(float(rng.uniform(0.5, 1.0)), 4)
                box = np.zeros((G, G), dtype=bool)
                box[r0:r0 + 2, c0:c0 + 2] = True
                if (covered | box).all():
                    continue
                covered |= box
                feats[t, r0:r0 + 2, c0:c0 + 2] = content
                snippet_boxes.append(SubjectBox(
                    c0 * cell_px, r0 * cell_px,
                    (c0 + 2) * cell_px, (r0 + 2) * cell_px,
                    confidence=confidence))
            # background exactly cancels the subjects' contribution, so the
            # global spatial average is the same scene vector in every
            # snippet: only subject-region pooling carries the action signal
            n_bg = G * G - int(covered.sum())
            bg_fill = (G * G * scene - covered.sum() * content) / n_bg
            feats[t][~covered] = bg_fill
            feats[t][~covered] += spec.noise * rng.normal(size=(n_bg, D))
            boxes.append(snippet_boxes)

        record = AnnotationRecord(f"synth_{v:03d}", spec.fps, spec.frame_size,
                                  spec.frame_size, spec.snippet_stride, [],
                                  boxes)
        unit = record.seconds_per_snippet
        # replace() checks the segments against the record again
        yield dataclasses.replace(record, segments=[
            GroundTruthSegment(c, s * unit, e * unit)
            for s, e, c in spans]), feats


def generate_synthetic(spec: SyntheticSpec, out_dir) -> list[AnnotationRecord]:
    """Write `synthetic_videos(spec)` as a data directory:
    <out>/annotations.jsonl, <out>/features/<id>.ptfv and <out>/spec.json.
    """
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    records = []
    for record, feats in synthetic_videos(spec):
        write_features(out / "features" / f"{record.id}.ptfv", feats)
        records.append(record)
    write_annotations(out / "annotations.jsonl", records)
    (out / "spec.json").write_text(spec.to_json() + "\n")
    return records
