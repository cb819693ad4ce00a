"""Run the k=2 and k=3 recognizers and replay every certificate they emit.

Each rejection comes with a machine-checkable witness: a hole, an induced
4-vertex path, a pair beyond the distance bound, or an unsolved gem.  The
script re-validates each one against the graph it came from.
"""

from __future__ import annotations

from lkconvex import (
    certificate_holds,
    certificate_json,
    generators,
    recognize_l2,
    recognize_l3,
)

samples = [
    ("triangle strip", generators.triangle_strip7()),
    ("6-cycle", generators.cycle(6)),
    ("path on 6", generators.path(6)),
    ("gem(4)", generators.gem(4)),
    ("gem(3)", generators.gem(3)),
    ("star on 7", generators.star(7)),
    ("random trivially perfect", generators.random_trivially_perfect(8, 1)),
]


# How each certificate kind is shown, filled in from its JSON fields.
SHOWN = {
    "hole": "hole {cycle}",
    "p4": "induced P4 {path}",
    "far_pair": "far pair ({u},{v}) at distance {distance}",
    "unsolved_gem": "unsolved gem base={base} apex={apex}",
}


def describe(cert) -> str:
    fields = certificate_json(cert)
    return SHOWN[fields["kind"]].format(
        **{key: tuple(x) if isinstance(x, list) else x for key, x in fields.items()}
    )


for name, g in samples:
    print(f"== {name} ({g.n} vertices) ==")
    for k, recognize in ((2, recognize_l2), (3, recognize_l3)):
        verdict = recognize(g)
        if verdict.accepted:
            line = f"  k={k}: accepted"
            if verdict.solved_gems:
                line += f" ({len(verdict.solved_gems)} gems, all solved)"
            print(line)
        else:
            print(f"  k={k}: rejected [{verdict.certificate_kind}]")
            ok = certificate_holds(g, k, verdict.certificate)
            print(f"    {describe(verdict.certificate)} revalidates: {ok}")
    print()
