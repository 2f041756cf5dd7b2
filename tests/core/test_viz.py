"""Tests for the SVG renderers (well-formedness and content)."""

import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

from repro.core import analyze_memory, gantt, mpo_order
from repro.core.viz import gantt_svg, memory_svg
from repro.graph.generators import random_trace
from repro.core import cyclic_placement, owner_compute_assignment


def setup():
    g = random_trace(30, 6, seed=3)
    pl = cyclic_placement(g, 3)
    asg = owner_compute_assignment(g, pl)
    s = mpo_order(g, pl, asg)
    return g, s


SVG_NS = "{http://www.w3.org/2000/svg}"


class TestGanttSVG:
    def test_well_formed(self):
        g, s = setup()
        doc = gantt_svg(gantt(s))
        root = ET.fromstring(doc)
        assert root.tag == f"{SVG_NS}svg"

    def test_one_rect_per_task(self):
        g, s = setup()
        doc = gantt_svg(gantt(s))
        root = ET.fromstring(doc)
        rects = root.findall(f".//{SVG_NS}rect")
        assert len(rects) == g.num_tasks

    def test_labels_optional(self):
        g, s = setup()
        plain = gantt_svg(gantt(s), label_tasks=False)
        labeled = gantt_svg(gantt(s), label_tasks=True)
        assert len(labeled) >= len(plain)

    def test_file_output(self, tmp_path):
        g, s = setup()
        out = tmp_path / "gantt.svg"
        gantt_svg(gantt(s), path=str(out))
        assert out.exists()
        ET.parse(out)

    def test_tooltip_titles(self):
        g, s = setup()
        root = ET.fromstring(gantt_svg(gantt(s)))
        titles = root.findall(f".//{SVG_NS}title")
        assert len(titles) == g.num_tasks


class TestMemorySVG:
    def test_well_formed(self):
        g, s = setup()
        doc = memory_svg(analyze_memory(s))
        ET.fromstring(doc)

    def test_one_polyline_per_busy_proc(self):
        g, s = setup()
        prof = analyze_memory(s)
        root = ET.fromstring(memory_svg(prof))
        polys = root.findall(f".//{SVG_NS}polyline")
        busy = sum(1 for pp in prof.procs if pp.mem_req)
        assert len(polys) == busy

    def test_capacity_rule(self):
        g, s = setup()
        prof = analyze_memory(s)
        doc = memory_svg(prof, capacity=prof.tot)
        assert "capacity" in doc and "MIN_MEM" in doc

    def test_file_output(self, tmp_path):
        g, s = setup()
        out = tmp_path / "mem.svg"
        memory_svg(analyze_memory(s), path=str(out))
        ET.parse(out)


def test_gantt_colours_do_not_depend_on_the_hash_seed(tmp_path):
    """Two ``repro svg`` runs under different ``PYTHONHASHSEED`` write
    byte-identical Gantt charts (the palette index is a stable hash)."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        subprocess.run([sys.executable, "-m", "repro", "svg", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outs.append(out)
    charts = sorted(p.name for p in outs[0].glob("*_gantt.svg"))
    assert charts
    for name in charts:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
