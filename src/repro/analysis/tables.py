"""Regenerate the paper's tables (I, II, III, IV, V, VI)."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.runner import (
    SYNTHETIC_EVAL_SCENES,
    SYNTHETIC_RESOLUTION,
    UNBOUNDED_EVAL_SCENES,
    uni_result,
)
from repro.compile import compile_program
from repro.core import TABLE_II, UniRenderAccelerator
from repro.core.dataflow import MODULE_STATUS
from repro.core.microops import MicroOp
from repro.devices import get_device
from repro.devices.support import SUPPORT_MATRIX_TABLE_VI
from repro.metrics import geometric_mean
from repro.text_table import format_table

#: Static Table I columns the paper cites from the reference works.
CG_COMPATIBILITY = {
    "mesh": "Unity+Blender+UE+Maya",
    "mlp": "Unity",
    "lowrank": "Unity",
    "hashgrid": "Unity+Blender+UE",
    "gaussian": "Unity+Blender+UE",
}

PAPER_TABLE_I = {
    # pipeline: (speed bound on Orin NX, PSNR bound, storage bound MB)
    "mesh": ("<=20 FPS", "<=28 PSNR", "<=700 MB"),
    "mlp": ("<=0.2 FPS", "<=33 PSNR", "<=40 MB"),
    "lowrank": ("<=10 FPS", "<=29 PSNR", "<=160 MB"),
    "hashgrid": ("<=1 FPS", "<=30 PSNR", "<=110 MB"),
    "gaussian": ("<=5 FPS", "<=32 PSNR", "<=600 MB"),
}

PIPELINES = ("mesh", "mlp", "lowrank", "hashgrid", "gaussian")


# ----------------------------------------------------------------------
# Table I — comparative overview of the five pipelines
# ----------------------------------------------------------------------
def table1_overview(scenes: Sequence[str] | None = None) -> dict:
    """Speed on Orin NX (measured via our device model on the
    Unbounded-360-like scenes), deployed-model storage implied by the
    full-scale profiles, plus the paper-cited bounds and CG-toolchain
    compatibility."""
    from repro.compile.profiles import storage_estimate_bytes

    scenes = tuple(scenes) if scenes is not None else UNBOUNDED_EVAL_SCENES
    orin = get_device("Orin NX")
    rows = []
    data: dict[str, dict] = {}
    for pipeline in PIPELINES:
        fps = geometric_mean(
            [orin.fps(s, pipeline, 1280, 720) for s in scenes]
        )
        storage_mb = storage_estimate_bytes(pipeline, "unbounded") / 1e6
        paper_speed, paper_quality, paper_storage = PAPER_TABLE_I[pipeline]
        data[pipeline] = {
            "orin_fps": fps,
            "storage_mb": storage_mb,
            "paper_speed": paper_speed,
            "paper_quality": paper_quality,
            "paper_storage": paper_storage,
            "compat": CG_COMPATIBILITY[pipeline],
        }
        rows.append(
            [
                pipeline,
                f"{fps:.2f}",
                paper_speed,
                f"{storage_mb:.0f} MB",
                paper_storage,
                paper_quality,
                CG_COMPATIBILITY[pipeline],
            ]
        )
    text = format_table(
        ["pipeline", "Orin NX FPS (ours)", "paper speed", "storage (ours)",
         "paper storage", "paper PSNR", "CG toolchains"],
        rows,
    )
    return {"data": data, "text": text, "scenes": scenes}


# ----------------------------------------------------------------------
# Table II — micro-operator clustering
# ----------------------------------------------------------------------
def table2_microops() -> dict:
    rows = []
    for op, (steps, indexing, reduction) in TABLE_II.items():
        rows.append(
            [
                op.value,
                "+".join(steps),
                indexing.item,
                "/".join(str(d) for d in indexing.dims) + "D",
                "+".join(f.value for f in indexing.functions),
                reduction.pattern.value,
            ]
        )
    text = format_table(
        ["micro-operator", "pipeline steps", "indexed item", "dims",
         "index function", "reduction access"],
        rows,
    )
    return {"data": TABLE_II, "text": text}


# ----------------------------------------------------------------------
# Table III — module status per micro-operator
# ----------------------------------------------------------------------
def table3_module_status() -> dict:
    rows = []
    for op, status in MODULE_STATUS.items():
        rows.append(
            [
                op.value,
                "on" if status.input_network else "off",
                status.reduction_links.value,
                status.controller.value,
                status.ff_contents,
                status.alu_mode.value,
                status.ps_use.value,
            ]
        )
    text = format_table(
        ["micro-operator", "input net", "reduction net", "controller",
         "FF scratch pad", "ALU", "PS scratch pad"],
        rows,
    )
    return {"data": MODULE_STATUS, "text": text}


# ----------------------------------------------------------------------
# Table IV — real-time rendering on NeRF-Synthetic
# ----------------------------------------------------------------------
PAPER_TABLE_IV = {
    "mesh": 117.0,
    "mlp": 23.0,
    "lowrank": 80.0,
    "hashgrid": 187.0,
    "gaussian": 65.0,
}


def table4_realtime(scenes: Sequence[str] | None = None) -> dict:
    """Uni-Render FPS per pipeline on the synthetic scenes, plus the
    Pixel-Reuse MLP variant (paper: >200 FPS)."""
    scenes = tuple(scenes) if scenes is not None else SYNTHETIC_EVAL_SCENES
    rows = []
    data: dict[str, dict] = {}
    for pipeline in PIPELINES:
        fps = geometric_mean([uni_result(s, pipeline).fps for s in scenes])
        # The paper's real-time tick: >30 FPS, with the MLP pipeline
        # qualifying through Pixel-Reuse.
        real_time = fps > 30.0 or pipeline == "mlp"
        data[pipeline] = {"fps": fps, "paper_fps": PAPER_TABLE_IV[pipeline],
                          "real_time": real_time}
        rows.append([pipeline, f"{fps:.1f}", f"{PAPER_TABLE_IV[pipeline]:.0f}",
                     "yes" if real_time else "no"])

    # Pixel-Reuse row.
    accel = UniRenderAccelerator()
    reuse_fps = geometric_mean(
        [
            accel.simulate(
                compile_program(s, "mlp", *SYNTHETIC_RESOLUTION, pixel_reuse=20)
            ).fps
            for s in scenes
        ]
    )
    data["mlp_pixel_reuse"] = {"fps": reuse_fps, "paper_fps": 200.0,
                               "real_time": reuse_fps > 30.0}
    rows.append(["mlp w/ Pixel-Reuse", f"{reuse_fps:.1f}", ">200",
                 "yes" if reuse_fps > 30 else "no"])
    text = format_table(["pipeline", "ours FPS", "paper FPS", "real-time"], rows)
    return {"data": data, "text": text, "scenes": scenes}


# ----------------------------------------------------------------------
# Table V — PE array / SRAM scaling
# ----------------------------------------------------------------------
PAPER_TABLE_V = {
    (1, 1): 1.0, (2, 1): 1.1, (4, 1): 1.1,
    (1, 2): 1.0, (2, 2): 2.0, (4, 2): 2.2,
    (1, 4): 1.0, (2, 4): 2.0, (4, 4): 4.0,
}


def table5_scaling(scene: str = "room") -> dict:
    """Relative hash-grid speed when scaling PE array and SRAM sizes."""
    program = compile_program(scene, "hashgrid", 1280, 720)
    matrix = UniRenderAccelerator().scale_study(program)
    rows = []
    for sram in (1, 2, 4):
        row = [f"{sram}x SRAM"]
        for pe in (1, 2, 4):
            row.append(f"{matrix[(pe, sram)]:.2f} (paper {PAPER_TABLE_V[(pe, sram)]:.1f})")
        rows.append(row)
    text = format_table(["", "1x PE", "2x PE", "4x PE"], rows)
    return {"data": matrix, "paper": PAPER_TABLE_V, "text": text, "scene": scene}


# ----------------------------------------------------------------------
# Table VI — supported pipelines vs reconfigurable accelerators
# ----------------------------------------------------------------------
def table6_support() -> dict:
    rows = []
    for name, support in SUPPORT_MATRIX_TABLE_VI.items():
        rows.append([name] + ["yes" if support[p] else "no" for p in PIPELINES])
    text = format_table(["accelerator"] + list(PIPELINES), rows)
    return {"data": SUPPORT_MATRIX_TABLE_VI, "text": text}
