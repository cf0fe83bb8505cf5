"""From parameters to a knot, its ambient space, and a checked diagram.

Each parameter tuple determines a doubly pointed knot diagram in a lens
space; the manifold the parameters describe is the n-fold cyclic cover
of that lens space branched over the knot. The script reduces the knot
move by move to identify the ambient space, then builds the glued
sphere-tessellation diagram and reads the group relators back off it.
"""

from seifknot import (
    GluedDiagram,
    diagram_from_seifert,
    knot_from_seifert,
    lens_name,
    read_off_matches_cyclic,
    reduce_to_lens,
    seifert_word,
)


def show(n: int, p: int, q: int, l: int) -> None:
    cover = knot_from_seifert(n, p, q, l)
    print(f"parameters (n, p, q, l) = ({n}, {p}, {q}, {l})")
    print(f"  knot {cover.knot}, {cover.sheets}-fold branched cover")

    lens, trace = reduce_to_lens(cover.knot)
    plural = "s" if len(trace) != 1 else ""
    print(f"  reduction to the ambient space ({len(trace)} move{plural})")
    state = cover.knot
    for label, state in trace:
        print(f"    {label:>5} -> {state}")
    print(f"  ambient space {lens_name(lens)}"
          f" (closed form agrees: {lens == cover.ambient})")

    params = diagram_from_seifert(n, p, q, l)
    diagram = GluedDiagram(params)
    counts = diagram.counts()
    print(f"  diagram {params}: vertices/edges/faces/cells = {counts}")
    if diagram.satisfies_cover_criterion():
        words = diagram.read_off_words()
        match = read_off_matches_cyclic(words, seifert_word(n, p, q, l))
        print(f"  read-off relators {', '.join(str(w) for w in words)}")
        print(f"  match the cyclic presentation: {match}")
    print()


def main() -> None:
    for params in [(3, 2, 1, 1), (2, 3, 2, 2), (3, 5, 2, 1), (4, 3, 2, 1)]:
        show(*params)


if __name__ == "__main__":
    main()
