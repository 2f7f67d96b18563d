"""Frozen probe coefficients for every (scene, pipeline) pair.

GENERATED by ``python -m repro.compile.measure --write-table`` from
``repro.compile.measure.probe_coeffs``; do not edit by hand.
``tests/test_probe_kernels.py`` re-probes every pair against this table
and checks that the writer reproduces this file byte for byte.

Keys are ``"scene/pipeline"``; values are ``float.hex`` strings.
"""

COEFF_TABLE: dict[str, dict[str, str]] = {
    "chair/mesh": {
        "complexity": "0x1.3333333333333p-1",
        "coverage": "0x1.9333333333333p-3",
        "overdraw": "0x1.ed0a3d70a3d71p+1",
    },
    "chair/mlp": {
        "complexity": "0x1.3333333333333p-1",
        "live_fraction": "0x1.8b69d0369d037p-6",
    },
    "chair/lowrank": {
        "complexity": "0x1.3333333333333p-1",
        "live_fraction": "0x1.8b69d0369d037p-6",
    },
    "chair/hashgrid": {
        "complexity": "0x1.3333333333333p-1",
        "live_fraction": "0x1.8b69d0369d037p-6",
    },
    "chair/gaussian": {
        "complexity": "0x1.3333333333333p-1",
        "sort_share": "0x1.318fc504816f0p-11",
        "splat_overlap": "0x1.2a2b1704ff434p-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "chair/mixrt": {
        "complexity": "0x1.3333333333333p-1",
        "live_fraction": "0x1.8b69d0369d037p-7",
    },
    "drums/mesh": {
        "complexity": "0x1.ccccccccccccdp-1",
        "coverage": "0x1.0b851eb851eb8p-3",
        "overdraw": "0x1.436147ae147aep+2",
    },
    "drums/mlp": {
        "complexity": "0x1.ccccccccccccdp-1",
        "live_fraction": "0x1.85d4c3b2a1908p-6",
    },
    "drums/lowrank": {
        "complexity": "0x1.ccccccccccccdp-1",
        "live_fraction": "0x1.85d4c3b2a1908p-6",
    },
    "drums/hashgrid": {
        "complexity": "0x1.ccccccccccccdp-1",
        "live_fraction": "0x1.85d4c3b2a1908p-6",
    },
    "drums/gaussian": {
        "complexity": "0x1.ccccccccccccdp-1",
        "sort_share": "0x1.2b851eb851eb8p-11",
        "splat_overlap": "0x1.1ce1c58255b03p-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "drums/mixrt": {
        "complexity": "0x1.ccccccccccccdp-1",
        "live_fraction": "0x1.85d4c3b2a1908p-7",
    },
    "ficus/mesh": {
        "complexity": "0x1.3333333333333p+0",
        "coverage": "0x1.3b851eb851eb8p-3",
        "overdraw": "0x1.89c28f5c28f5cp+2",
    },
    "ficus/mlp": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.a41fdb97530edp-6",
    },
    "ficus/lowrank": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.a41fdb97530edp-6",
    },
    "ficus/hashgrid": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.a41fdb97530edp-6",
    },
    "ficus/gaussian": {
        "complexity": "0x1.3333333333333p+0",
        "sort_share": "0x1.3497b7414a4d3p-11",
        "splat_overlap": "0x1.29984a0e410b6p-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "ficus/mixrt": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.a41fdb97530edp-7",
    },
    "hotdog/mesh": {
        "complexity": "0x1.0000000000000p-1",
        "coverage": "0x1.170a3d70a3d71p-4",
        "overdraw": "0x1.0670a3d70a3d7p+1",
    },
    "hotdog/mlp": {
        "complexity": "0x1.0000000000000p-1",
        "live_fraction": "0x1.e2a1907f6e5d5p-7",
    },
    "hotdog/lowrank": {
        "complexity": "0x1.0000000000000p-1",
        "live_fraction": "0x1.e2a1907f6e5d5p-7",
    },
    "hotdog/hashgrid": {
        "complexity": "0x1.0000000000000p-1",
        "live_fraction": "0x1.e2a1907f6e5d5p-7",
    },
    "hotdog/gaussian": {
        "complexity": "0x1.0000000000000p-1",
        "sort_share": "0x1.22b6ae7d566cfp-11",
        "splat_overlap": "0x1.20221426fe719p-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "hotdog/mixrt": {
        "complexity": "0x1.0000000000000p-1",
        "live_fraction": "0x1.e2a1907f6e5d5p-8",
    },
    "lego/mesh": {
        "complexity": "0x1.0000000000000p+0",
        "coverage": "0x1.a5c28f5c28f5cp-3",
        "overdraw": "0x1.9075c28f5c28fp+2",
    },
    "lego/mlp": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.9372ea61d950dp-6",
    },
    "lego/lowrank": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.9372ea61d950dp-6",
    },
    "lego/hashgrid": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.9372ea61d950dp-6",
    },
    "lego/gaussian": {
        "complexity": "0x1.0000000000000p+0",
        "sort_share": "0x1.3f822bbecaab8p-11",
        "splat_overlap": "0x1.37c5ac471b478p-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "lego/mixrt": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.9372ea61d950dp-7",
    },
    "materials/mesh": {
        "complexity": "0x1.ccccccccccccdp-1",
        "coverage": "0x1.0147ae147ae14p-3",
        "overdraw": "0x1.7d147ae147ae1p+2",
    },
    "materials/mlp": {
        "complexity": "0x1.ccccccccccccdp-1",
        "live_fraction": "0x1.587f6e5d4c3b3p-6",
    },
    "materials/lowrank": {
        "complexity": "0x1.ccccccccccccdp-1",
        "live_fraction": "0x1.587f6e5d4c3b3p-6",
    },
    "materials/hashgrid": {
        "complexity": "0x1.ccccccccccccdp-1",
        "live_fraction": "0x1.587f6e5d4c3b3p-6",
    },
    "materials/gaussian": {
        "complexity": "0x1.ccccccccccccdp-1",
        "sort_share": "0x1.45bc01a36e2ecp-11",
        "splat_overlap": "0x1.37f8ca8198f1ep-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "materials/mixrt": {
        "complexity": "0x1.ccccccccccccdp-1",
        "live_fraction": "0x1.587f6e5d4c3b3p-7",
    },
    "mic/mesh": {
        "complexity": "0x1.3333333333333p-1",
        "coverage": "0x1.0f5c28f5c28f6p-4",
        "overdraw": "0x1.6a51eb851eb85p+1",
    },
    "mic/mlp": {
        "complexity": "0x1.3333333333333p-1",
        "live_fraction": "0x1.1d5e6f8091a2bp-6",
    },
    "mic/lowrank": {
        "complexity": "0x1.3333333333333p-1",
        "live_fraction": "0x1.1d5e6f8091a2bp-6",
    },
    "mic/hashgrid": {
        "complexity": "0x1.3333333333333p-1",
        "live_fraction": "0x1.1d5e6f8091a2bp-6",
    },
    "mic/gaussian": {
        "complexity": "0x1.3333333333333p-1",
        "sort_share": "0x1.123a29c779a6cp-11",
        "splat_overlap": "0x1.06f544bb1af3ap-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "mic/mixrt": {
        "complexity": "0x1.3333333333333p-1",
        "live_fraction": "0x1.1d5e6f8091a2bp-7",
    },
    "ship/mesh": {
        "complexity": "0x1.6666666666666p+0",
        "coverage": "0x1.6ae147ae147aep-3",
        "overdraw": "0x1.27a8f5c28f5c3p+3",
    },
    "ship/mlp": {
        "complexity": "0x1.6666666666666p+0",
        "live_fraction": "0x1.044d5e6f8091ap-5",
    },
    "ship/lowrank": {
        "complexity": "0x1.6666666666666p+0",
        "live_fraction": "0x1.044d5e6f8091ap-5",
    },
    "ship/hashgrid": {
        "complexity": "0x1.6666666666666p+0",
        "live_fraction": "0x1.044d5e6f8091ap-5",
    },
    "ship/gaussian": {
        "complexity": "0x1.6666666666666p+0",
        "sort_share": "0x1.41355475a31a5p-11",
        "splat_overlap": "0x1.2ae536501e258p-3",
        "visible_fraction": "0x1.0000000000000p+0",
    },
    "ship/mixrt": {
        "complexity": "0x1.6666666666666p+0",
        "live_fraction": "0x1.044d5e6f8091ap-6",
    },
    "room/mesh": {
        "complexity": "0x1.0000000000000p+0",
        "coverage": "0x1.ca147ae147ae1p-1",
        "overdraw": "0x1.5768f5c28f5c3p+3",
    },
    "room/mlp": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.a448d159e26afp-5",
    },
    "room/lowrank": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.a448d159e26afp-5",
    },
    "room/hashgrid": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.a448d159e26afp-5",
    },
    "room/gaussian": {
        "complexity": "0x1.0000000000000p+0",
        "sort_share": "0x1.43d5aaa9ef28cp-10",
        "splat_overlap": "0x1.d9068f823f570p-3",
        "visible_fraction": "0x1.ca1cac083126fp-2",
    },
    "room/mixrt": {
        "complexity": "0x1.0000000000000p+0",
        "live_fraction": "0x1.a448d159e26afp-6",
    },
    "counter/mesh": {
        "complexity": "0x1.6666666666666p+0",
        "coverage": "0x1.d99999999999ap-1",
        "overdraw": "0x1.0b170a3d70a3dp+3",
    },
    "counter/mlp": {
        "complexity": "0x1.6666666666666p+0",
        "live_fraction": "0x1.420fedcba9876p-5",
    },
    "counter/lowrank": {
        "complexity": "0x1.6666666666666p+0",
        "live_fraction": "0x1.420fedcba9876p-5",
    },
    "counter/hashgrid": {
        "complexity": "0x1.6666666666666p+0",
        "live_fraction": "0x1.420fedcba9876p-5",
    },
    "counter/gaussian": {
        "complexity": "0x1.6666666666666p+0",
        "sort_share": "0x1.42d19a640d008p-10",
        "splat_overlap": "0x1.d8e0a3eedb94ep-3",
        "visible_fraction": "0x1.c2d0e56041893p-2",
    },
    "counter/mixrt": {
        "complexity": "0x1.6666666666666p+0",
        "live_fraction": "0x1.420fedcba9876p-6",
    },
    "kitchen/mesh": {
        "complexity": "0x1.999999999999ap+0",
        "coverage": "0x1.c147ae147ae14p-1",
        "overdraw": "0x1.1b6e147ae147bp+3",
    },
    "kitchen/mlp": {
        "complexity": "0x1.999999999999ap+0",
        "live_fraction": "0x1.6d0c83fb72ea6p-5",
    },
    "kitchen/lowrank": {
        "complexity": "0x1.999999999999ap+0",
        "live_fraction": "0x1.6d0c83fb72ea6p-5",
    },
    "kitchen/hashgrid": {
        "complexity": "0x1.999999999999ap+0",
        "live_fraction": "0x1.6d0c83fb72ea6p-5",
    },
    "kitchen/gaussian": {
        "complexity": "0x1.999999999999ap+0",
        "sort_share": "0x1.436d43e39d583p-10",
        "splat_overlap": "0x1.d95fe79726591p-3",
        "visible_fraction": "0x1.c5a1cac083127p-2",
    },
    "kitchen/mixrt": {
        "complexity": "0x1.999999999999ap+0",
        "live_fraction": "0x1.6d0c83fb72ea6p-6",
    },
    "bonsai/mesh": {
        "complexity": "0x1.3333333333333p+0",
        "coverage": "0x1.b333333333333p-1",
        "overdraw": "0x1.cd23d70a3d70ap+2",
    },
    "bonsai/mlp": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.5a8acf13579bep-5",
    },
    "bonsai/lowrank": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.5a8acf13579bep-5",
    },
    "bonsai/hashgrid": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.5a8acf13579bep-5",
    },
    "bonsai/gaussian": {
        "complexity": "0x1.3333333333333p+0",
        "sort_share": "0x1.46ccd5b0f6746p-10",
        "splat_overlap": "0x1.dd7d0cfbd97e9p-3",
        "visible_fraction": "0x1.c4dd2f1a9fbe7p-2",
    },
    "bonsai/mixrt": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.5a8acf13579bep-6",
    },
    "bicycle/mesh": {
        "complexity": "0x1.999999999999ap+0",
        "coverage": "0x1.8733333333333p-1",
        "overdraw": "0x1.6a4a3d70a3d71p+3",
    },
    "bicycle/mlp": {
        "complexity": "0x1.999999999999ap+0",
        "live_fraction": "0x1.4f77777777777p-5",
    },
    "bicycle/lowrank": {
        "complexity": "0x1.999999999999ap+0",
        "live_fraction": "0x1.4f77777777777p-5",
    },
    "bicycle/hashgrid": {
        "complexity": "0x1.999999999999ap+0",
        "live_fraction": "0x1.4f77777777777p-5",
    },
    "bicycle/gaussian": {
        "complexity": "0x1.999999999999ap+0",
        "sort_share": "0x1.230d217777e06p-10",
        "splat_overlap": "0x1.b68453462d50cp-3",
        "visible_fraction": "0x1.10f5c28f5c28fp-1",
    },
    "bicycle/mixrt": {
        "complexity": "0x1.999999999999ap+0",
        "live_fraction": "0x1.4f77777777777p-6",
    },
    "garden/mesh": {
        "complexity": "0x1.0000000000000p+1",
        "coverage": "0x1.570a3d70a3d71p-1",
        "overdraw": "0x1.1eab851eb851fp+3",
    },
    "garden/mlp": {
        "complexity": "0x1.0000000000000p+1",
        "live_fraction": "0x1.5a740da740da7p-5",
    },
    "garden/lowrank": {
        "complexity": "0x1.0000000000000p+1",
        "live_fraction": "0x1.5a740da740da7p-5",
    },
    "garden/hashgrid": {
        "complexity": "0x1.0000000000000p+1",
        "live_fraction": "0x1.5a740da740da7p-5",
    },
    "garden/gaussian": {
        "complexity": "0x1.0000000000000p+1",
        "sort_share": "0x1.2e79ab7a95e83p-10",
        "splat_overlap": "0x1.c22e07206271ep-3",
        "visible_fraction": "0x1.1ab020c49ba5ep-1",
    },
    "garden/mixrt": {
        "complexity": "0x1.0000000000000p+1",
        "live_fraction": "0x1.5a740da740da7p-6",
    },
    "stump/mesh": {
        "complexity": "0x1.3333333333333p+0",
        "coverage": "0x1.57851eb851eb8p-1",
        "overdraw": "0x1.574f5c28f5c29p+3",
    },
    "stump/mlp": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.5acf13579be02p-5",
    },
    "stump/lowrank": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.5acf13579be02p-5",
    },
    "stump/hashgrid": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.5acf13579be02p-5",
    },
    "stump/gaussian": {
        "complexity": "0x1.3333333333333p+0",
        "sort_share": "0x1.1ed3ea02cd726p-10",
        "splat_overlap": "0x1.b057f4ca368aap-3",
        "visible_fraction": "0x1.23d70a3d70a3dp-1",
    },
    "stump/mixrt": {
        "complexity": "0x1.3333333333333p+0",
        "live_fraction": "0x1.5acf13579be02p-6",
    },
}
