import json
import math
import re
import struct
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taldet.cli import EXIT_VALIDATION, main
from taldet.dataio import (AnnotationRecord, FormatError, SyntheticSpec,
                           ValidationError, generate_synthetic, parse_scalar,
                           parser, read_annotations, read_checkpoint,
                           read_detections, read_features, write_annotations,
                           write_checkpoint, write_detections, write_features)
from taldet.heads import GroundTruthSegment
from taldet.model import ModelConfig
from taldet.postprocess import ActionSegment, InferConfig
from taldet.subjects import SubjectBox
from taldet.training import TrainConfig


class TestParse:
    @pytest.mark.parametrize("want, value", [
        (int, 3), (int, -2), (float, 0.5), (float, 2), (float, -1e300),
        (bool, False), (str, "v")])
    def test_accepts_its_type(self, want, value):
        out = parse_scalar(want, value)
        assert out == value and type(out) is want

    @pytest.mark.parametrize("want, value, message", [
        (int, True, "True is not int"), (int, 2.0, "2.0 is not int"),
        (int, "2", "'2' is not int"), (float, False, "False is not float"),
        (float, "0.5", "'0.5' is not float"),
        (float, [0.5], "[0.5] is not float"),
        (float, None, "None is not float"),
        (float, math.nan, "nan is not finite"),
        (float, -math.inf, "-inf is not finite"), (bool, 1, "1 is not bool"),
        (str, 3, "3 is not str"), (str, "", "'' is not str")])
    def test_refuses_everything_else(self, want, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_scalar(want, value)

    def test_integer_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="is not finite"):
            parse_scalar(float, 10 ** 400)
        assert parse_scalar(int, 10 ** 400) == 10 ** 400

    def test_nested_records_and_lists(self):
        # a parse reads a column: here one `boxes` value
        parse = parser(list[list[SubjectBox]])
        boxes, = parse([[[[0, 0, 2, 2, 1]], [],
                         [[0.0, 1.0, 3.0, 4.0, 0.5]] * 2]])
        assert boxes == [[SubjectBox(0.0, 0.0, 2.0, 2.0, 1.0)], [],
                         [SubjectBox(0.0, 1.0, 3.0, 4.0, 0.5)] * 2]
        assert type(boxes[0][0].x1) is float
        for bad, message in [([[[0, 0, 2, 2]]], r"is not \[x1, y1, x2, y2, "
                                                r"confidence\]"),
                             ([5], "5 is not a list"),
                             ([[[0, 0, 2, 2, True]]], "True is not float"),
                             ([[[0, 0, 0, 2, 1]]], "degenerate")]:
            with pytest.raises(ValueError, match=message):
                parse([bad])

    @pytest.mark.parametrize("cls", [AnnotationRecord, GroundTruthSegment,
                                     SubjectBox, ActionSegment, ModelConfig,
                                     TrainConfig, InferConfig])
    def test_every_record_and_setting_field_has_a_parse(self, cls):
        """A field of a type the parse cannot read fails here, not on a
        user's file."""
        for hint in typing.get_type_hints(cls).values():
            parser(hint)

    @pytest.mark.parametrize("hint", [dict, tuple[int], int | None,
                                      list[dict], typing.Any])
    def test_other_types_have_no_parse(self, hint):
        with pytest.raises(TypeError):
            parser(hint)


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 4, 4, 5)).astype(np.float32)
        p = tmp_path / "f.ptfv"
        write_features(p, arr)
        back = read_features(p)
        np.testing.assert_array_equal(back, arr.astype(np.float64))

    def test_header_layout_and_size(self, tmp_path):
        # 4-byte magic + 5 little-endian u32 = 24-byte header, then
        # 4 bytes per float32 element
        arr = np.zeros((2, 2, 2, 3), dtype=np.float32)
        p = tmp_path / "f.ptfv"
        write_features(p, arr)
        raw = p.read_bytes()
        assert len(raw) == 24 + 4 * arr.size
        assert raw[:4] == b"PTFV"
        assert struct.unpack("<5I", raw[4:24]) == (1, 2, 2, 2, 3)

    def test_write_read_is_idempotent_bytes(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(1, 2, 2, 2))
        p1, p2 = tmp_path / "a.ptfv", tmp_path / "b.ptfv"
        write_features(p1, arr)
        write_features(p2, read_features(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ptfv"
        p.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(FormatError, match="magic"):
            read_features(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short.ptfv"
        p.write_bytes(b"PTFV\0\0")
        with pytest.raises(FormatError, match="truncated"):
            read_features(p)

    def test_payload_size_mismatch_reports_bytes(self, tmp_path):
        p = tmp_path / "f.ptfv"
        write_features(p, np.zeros((1, 1, 1, 2)))
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError, match="expected 32 bytes, found 28"):
            read_features(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "f.ptfv"
        write_features(p, np.zeros((1, 1, 1, 1)))
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_features(p)

    def test_non_finite_rejected_on_write(self, tmp_path):
        arr = np.zeros((1, 1, 1, 1))
        arr[0, 0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            write_features(tmp_path / "f.ptfv", arr)

    def test_wrong_rank_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_features(tmp_path / "f.ptfv", np.zeros((2, 2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, seed):
        import tempfile
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(1, 5)) for _ in range(4))
        arr = rng.normal(size=shape).astype(np.float32)
        with tempfile.TemporaryDirectory() as d:
            p = f"{d}/f.ptfv"
            write_features(p, arr)
            np.testing.assert_array_equal(read_features(p), arr)


def sample_record(vid="v0", T=4, segments=(GroundTruthSegment(0, 0.1, 0.9),)):
    boxes = [[SubjectBox(0, 0, 16, 16, 0.9)] for _ in range(T)]
    return AnnotationRecord(vid, 16.0, 64, 64, 4, list(segments), boxes)


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        recs = [sample_record("a"),
                sample_record("b", T=2,
                              segments=[GroundTruthSegment(1, 0.0, 0.5)])]
        write_annotations(p, recs)
        back = read_annotations(p)
        assert [r.id for r in back] == ["a", "b"]
        assert back[0].segments == recs[0].segments
        np.testing.assert_array_equal(back[1].boxes.rows, recs[1].boxes.rows)
        np.testing.assert_array_equal(back[1].boxes.counts,
                                      recs[1].boxes.counts)
        assert back[0].fps == 16.0 and back[0].snippet_stride == 4
        assert back == recs

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        write_annotations(p, [sample_record()])
        obj = json.loads(p.read_text())
        obj["extra"] = 1
        p.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match="unknown"):
            read_annotations(p)

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        write_annotations(p, [sample_record()])
        obj = json.loads(p.read_text())
        del obj["fps"]
        p.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match="missing"):
            read_annotations(p)

    def test_segment_outside_video_rejected(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        rec = sample_record(T=4)  # duration = 4 * 4 / 16 = 1.0s
        rec.segments = [GroundTruthSegment(0, 0.5, 5.0)]
        write_annotations(p, [rec])
        with pytest.raises(ValidationError, match="outside"):
            read_annotations(p)

    def test_negative_class_id_rejected(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        rec = sample_record("neg")
        rec.segments = [GroundTruthSegment(-1, 0.0, 0.5)]
        write_annotations(p, [rec])
        with pytest.raises(ValidationError, match="record neg: negative"):
            read_annotations(p)

    def test_invalid_json_line(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        p.write_text("{not json\n")
        with pytest.raises(FormatError, match=":1:"):
            read_annotations(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        write_annotations(p, [sample_record()])
        p.write_text(p.read_text() + "\n\n")
        assert len(read_annotations(p)) == 1

    def test_read_builds_no_subject_box(self, tmp_path, monkeypatch):
        p = tmp_path / "ann.jsonl"
        write_annotations(p, [sample_record("a"), sample_record("b", T=5)])

        def refuse(box):
            raise AssertionError("a SubjectBox was built")
        monkeypatch.setattr(SubjectBox, "__post_init__", refuse)
        back = read_annotations(p)
        assert back[1].boxes.rows.tolist() == [[0.0, 0.0, 16.0, 16.0, 0.9]] * 5
        assert back[1].boxes.counts.tolist() == [1] * 5

    @pytest.mark.parametrize("edit, message", [
        (lambda box: box.__setitem__(2, box[0]), "degenerate subject box"),
        (lambda box: box.pop(),
         "[32.0, 32.0, 64.0, 64.0] is not [x1, y1, x2, y2, confidence]"),
        (lambda box: box.__setitem__(1, True), "True is not float"),
        (lambda box: box.__setitem__(3, "30.0"), "'30.0' is not float"),
    ], ids=["degenerate", "four-numbers", "bool", "string"])
    def test_bad_box_exits_eval_2_naming_it(self, tmp_path, capsys, edit,
                                            message):
        data = tmp_path / "data"
        generate_synthetic(SyntheticSpec(seed=5, num_videos=2), data)
        ann = data / "annotations.jsonl"
        first, second = ann.read_text().splitlines()
        obj = json.loads(second)
        edit(obj["boxes"][1][0])
        ann.write_text(f"{first}\n{json.dumps(obj)}\n")
        # the annotations are read before the (missing) detections
        assert main(["eval", "--data", str(data), "--detections",
                     str(tmp_path / "unread.jsonl")]) == EXIT_VALIDATION
        assert (f"{ann}:2: boxes: {message}\n"
                in capsys.readouterr().err)


class TestDetections:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        dets = {"v1": [ActionSegment(0, 0.9, 0.0, 1.0),
                       ActionSegment(1, 0.5, 2.0, 3.0)],
                "v0": [ActionSegment(0, 0.25, 0.5, 1.5)]}
        write_detections(p, dets)
        back = read_detections(p)
        assert back == dets

    def test_zero_detection_video_round_trip(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        write_detections(p, {"empty": []})
        assert read_detections(p) == {}
        assert p.read_text() == ""

    def test_bad_fields(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text(json.dumps({"video_id": "v", "class_id": 0}) + "\n")
        with pytest.raises(ValidationError):
            read_detections(p)

    def test_bad_line_of_a_long_file_is_named(self, tmp_path):
        # lines are parsed in chunks of 4 KiB; a bad line in a later chunk
        # still gets its own line number
        p = tmp_path / "dets.jsonl"
        dets = {"v": [ActionSegment(0, 0.5, float(i), i + 1.0)
                      for i in range(3000)]}
        write_detections(p, dets)
        assert read_detections(p) == dets
        lines = p.read_text().splitlines()
        lines[2500] = lines[2500].replace('"score": 0.5', '"score": true')
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError,
                           match=r"dets\.jsonl:2501: score: True is not "
                                 r"float"):
            read_detections(p)

    def test_first_bad_line_is_named(self, tmp_path):
        # a bad value on line 2 is named before a non-JSON line 4
        p = tmp_path / "dets.jsonl"
        write_detections(p, {"v": [ActionSegment(0, 0.5, float(i), i + 1.0)
                                   for i in range(3)]})
        lines = p.read_text().splitlines()
        lines[1] = lines[1].replace('"score": 0.5', '"score": true')
        p.write_text("\n".join(lines + ["{not json"]) + "\n")
        with pytest.raises(ValidationError,
                           match=r"dets\.jsonl:2: score: True is not float"):
            read_detections(p)


class TestCheckpoints:
    def test_round_trip_names_shapes_values(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = [("layer.w", rng.normal(size=(3, 4)).astype(np.float32)),
                  ("layer.b", rng.normal(size=4).astype(np.float32)),
                  ("ema/layer.w", rng.normal(size=(3, 4)).astype(np.float32))]
        p = tmp_path / "m.ptck"
        write_checkpoint(p, arrays)
        back = read_checkpoint(p)
        assert [n for n, _ in back] == [n for n, _ in arrays]
        for (_, a), (_, b) in zip(arrays, back):
            np.testing.assert_array_equal(a.astype(np.float64), b)

    def test_write_read_write_bitwise_stable(self, tmp_path):
        arrays = [("w", np.arange(6, dtype=np.float32).reshape(2, 3))]
        p1, p2 = tmp_path / "a.ptck", tmp_path / "b.ptck"
        write_checkpoint(p1, arrays)
        write_checkpoint(p2, read_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "m.ptck"
        write_checkpoint(p, [("w", np.zeros(2, dtype=np.float32))])
        p.write_bytes(p.read_bytes() + b"\0\0")
        with pytest.raises(FormatError, match="trailing"):
            read_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "m.ptck"
        write_checkpoint(p, [("w", np.zeros((2, 2), dtype=np.float32))])
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(FormatError):
            read_checkpoint(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        p = tmp_path / "m.ptck"
        write_checkpoint(p, [("layer.w", np.zeros(2)),
                             ("layer.b", np.array([0.0, bad]))])
        with pytest.raises(FormatError, match=r"m\.ptck.*layer\.b"):
            read_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ptck"
        p.write_bytes(b"NOPE" + b"\0" * 8)
        with pytest.raises(FormatError):
            read_checkpoint(p)


class TestSyntheticGenerator:
    @pytest.mark.parametrize("bad, message", [
        ({"num_videos": 0}, "num_videos"), ({"num_classes": 0}, "num_classes"),
        ({"seed": -1}, "seed"), ({"noise": math.nan}, "noise"),
        ({"noise": -0.1}, "noise"), ({"noise": math.inf}, "noise"),
        ({"snippets_min": 4, "snippets_max": 4}, "snippets_min must be >= 5"),
        ({"snippets_min": 9, "snippets_max": 8}, "snippets_max"),
        ({"grid": 1}, "grid must be >= 2"),
        ({"subjects_min": -1}, "subjects_min must be >= 0"),
        ({"subjects_min": 3, "subjects_max": 1}, "subjects_max")])
    def test_spec_checks_its_ranges(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**{"seed": 0} | bad)

    def test_spec_at_its_bounds_generates(self, tmp_path):
        # 5 snippets, 0-2 boxes drawn for each, and a 2 x 2 grid that any
        # box would cover, so none is placed
        spec = SyntheticSpec(seed=0, num_videos=2, snippets_min=5,
                             snippets_max=5, grid=2, subjects_min=0,
                             subjects_max=2)
        records = generate_synthetic(spec, tmp_path)
        assert [r.num_snippets for r in records] == [5, 5]
        assert all(r.boxes.counts.sum() == 0 for r in records)

    def test_deterministic_given_seed(self, tmp_path):
        spec = SyntheticSpec(seed=5, num_videos=2, snippets_min=8,
                             snippets_max=10)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_synthetic(spec, d1)
        generate_synthetic(spec, d2)
        assert ((d1 / "annotations.jsonl").read_bytes()
                == (d2 / "annotations.jsonl").read_bytes())
        for f in sorted((d1 / "features").iterdir()):
            assert f.read_bytes() == (d2 / "features" / f.name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = generate_synthetic(SyntheticSpec(seed=1, num_videos=1),
                               tmp_path / "a")
        b = generate_synthetic(SyntheticSpec(seed=2, num_videos=1),
                               tmp_path / "b")
        fa = read_features(tmp_path / "a" / "features" / f"{a[0].id}.ptfv")
        fb = read_features(tmp_path / "b" / "features" / f"{b[0].id}.ptfv")
        assert fa.shape != fb.shape or not np.array_equal(fa, fb)

    def test_layout_and_readability(self, tmp_path):
        spec = SyntheticSpec(seed=3, num_videos=3, snippets_min=6,
                             snippets_max=8)
        recs = generate_synthetic(spec, tmp_path)
        assert (tmp_path / "spec.json").exists()
        back = read_annotations(tmp_path / "annotations.jsonl")
        assert [r.id for r in back] == [r.id for r in recs]
        for r in back:
            feats = read_features(tmp_path / "features" / f"{r.id}.ptfv")
            assert feats.shape == (r.num_snippets, spec.grid, spec.grid,
                                   spec.feature_dim)
            assert r.segments and all(s.end <= r.duration + 1e-9
                                      for s in r.segments)
            assert (r.boxes.counts >= spec.subjects_min).all()

    def test_global_average_is_constant_scene_vector(self, tmp_path):
        # the designed confound: spatial mean of every snippet is identical,
        # so global pooling carries no action information
        spec = SyntheticSpec(seed=4, num_videos=2, snippets_min=6,
                             snippets_max=8, noise=0.0)
        recs = generate_synthetic(spec, tmp_path)
        means = []
        for r in recs:
            feats = read_features(tmp_path / "features" / f"{r.id}.ptfv")
            means.append(feats.mean(axis=(1, 2)))
        ref = means[0][0]
        for m in means:
            # float32 storage rounds the exact cancellation
            assert np.abs(m - ref[None, :]).max() < 1e-5

    def test_boxes_never_cover_the_grid(self, tmp_path):
        """Eight boxes a snippet can cover the 4 x 4 grid. The box that
        would take a snippet's last background cell is dropped, so the
        generator divides by no zero (no RuntimeWarning), every feature is
        finite and every snippet's average is still the scene vector."""
        spec = SyntheticSpec(seed=2, num_videos=2, snippets_min=30,
                             snippets_max=30, subjects_min=8, subjects_max=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recs = generate_synthetic(spec, tmp_path)
        means = []
        for r in recs:
            feats = read_features(tmp_path / "features" / f"{r.id}.ptfv")
            assert np.isfinite(feats).all()
            means.append(feats.mean(axis=(1, 2)))
            cell = spec.frame_size // spec.grid
            snippets = np.cumsum(r.boxes.counts)[:-1]
            for boxes in np.split(r.boxes.rows, snippets):
                covered = np.zeros((spec.grid, spec.grid), dtype=bool)
                for x1, y1, x2, y2, _ in boxes.astype(int) // cell:
                    covered[y1:y2, x1:x2] = True
                assert not covered.all()
        assert (np.concatenate([r.boxes.counts for r in recs]) < 8).any()
        means = np.concatenate(means)
        assert np.abs(means - means[0]).max() < 1e-5

    def test_subject_cells_carry_class_signal(self, tmp_path):
        spec = SyntheticSpec(seed=6, num_videos=1, num_classes=2,
                             snippets_min=10, snippets_max=10, noise=0.0)
        recs = generate_synthetic(spec, tmp_path)
        r = recs[0]
        feats = read_features(tmp_path / "features" / f"{r.id}.ptfv")
        sec = spec.snippet_stride / spec.fps
        cell = spec.frame_size // spec.grid
        # inside a segment every box region holds one fixed vector; its norm
        # is the class-signal norm (3), distinct from idle (1.5)
        seg = r.segments[0]
        t = int(round(seg.start / sec)) + 1
        assert seg.start <= t * sec <= seg.end
        x1, y1 = r.boxes.rows[r.boxes.counts[:t].sum(), :2]  # t's first box
        r0, c0 = int(y1) // cell, int(x1) // cell
        vec = feats[t, r0, c0]
        np.testing.assert_allclose(np.linalg.norm(vec), 3.0, atol=1e-4)
        np.testing.assert_allclose(feats[t, r0 + 1, c0 + 1], vec, atol=1e-6)
