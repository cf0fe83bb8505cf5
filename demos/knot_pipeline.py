"""From parameters to a knot, its ambient space, and a checked diagram.

Each parameter tuple determines a doubly pointed knot diagram in a lens
space; the manifold the parameters describe is the n-fold cyclic cover
of that lens space branched over the knot. The script reduces the knot
move by move to identify the ambient space, then builds the glued
sphere-tessellation diagram and reads the group relators back off it.
"""

from seifknot import (
    check_seifert_diagram,
    knot_from_seifert,
    lens_name,
    reduce_to_lens,
    seifert_word,
)


def show(n: int, p: int, q: int, l: int) -> None:
    cover = knot_from_seifert(n, p, q, l)
    print(f"parameters (n, p, q, l) = ({n}, {p}, {q}, {l})")
    print(f"  knot {cover.knot}, {cover.sheets}-fold branched cover")

    lens, trace = reduce_to_lens(cover.knot)
    moves = sum(count for _, count, _ in trace)
    runs = len(trace)
    print(f"  reduction to the ambient space ({moves} move{'s' * (moves != 1)}"
          f" in {runs} run{'s' * (runs != 1)})")
    for label, count, state in trace:
        print(f"    {label:>5} x{count} -> {state}")
    print(f"  ambient space {lens_name(lens)}"
          f" (closed form agrees: {lens == cover.ambient})")

    diagram, match = check_seifert_diagram(cover, seifert_word(n, p, q, l))
    counts = diagram.counts()
    print(f"  diagram {diagram.params}: vertices/edges/faces/cells = {counts}")
    if diagram.satisfies_cover_criterion():
        words = diagram.read_off_words()
        print(f"  read-off relators {', '.join(str(w) for w in words)}")
        print(f"  match the cyclic presentation: {match}")
    print()


def main() -> None:
    for params in [(3, 2, 1, 1), (2, 3, 2, 2), (3, 5, 2, 1), (4, 3, 2, 1)]:
        show(*params)


if __name__ == "__main__":
    main()
