"""Expected outputs for the benchmark, fixed from sources outside chordlab.

The counts are classical sequences, or were computed once with networkx on
crossing graphs built here.  The digests are sha256 sums of the stdout of
`chordlab enum ... --jobs 1` at the commit that introduced the benchmark.
Run `python3 perfbench/refs.py` to recompute the networkx counts; it needs
networkx, which the benchmark itself does not.
"""

from __future__ import annotations

# (2n-1)!!, n = 0..7: all rooted chord diagrams of size n
ALL = [1, 1, 3, 15, 105, 945, 10395, 135135]
# connected diagrams, n = 1..7 (OEIS A000699); index 0 unused
CONNECTED = [0, 1, 1, 4, 27, 248, 2830, 38232]
# one-terminal diagrams are counted by (2n-3)!!, n = 1..7; index 0 unused
ONE_TERMINAL = [0, 1, 1, 3, 15, 105, 945, 10395]
# diagrams whose crossing graph is bipartite / triangle-free, by size
BIPARTITE = {4: 84, 6: 4659, 7: 39699}
K3_FREE = {4: 84, 6: 4719, 7: 40898}

# sha256 of stdout, keyed by (size, *argv after "enum --size n --jobs 1")
DIGESTS: dict[tuple, str] = {
    (4,): "26915b78679d7f3015b16162645379bc9292bb8f4cfca458284ccb90321581db",
    (4, "--class", "connected", "--stats", "t1,terminal-count"):
        "bec06615931d43d5c79585559a667ce36dfa62c476991d254985767f7b32a535",
    (4, "--class", "one-terminal", "--stats", "terminality,kappa"):
        "5cb85d305dadcbc8c1981ecb6d7ae421d552adcbb0133b4cfcc00d42c8651485",
    (4, "--stats", "crossings,nestings"):
        "8877aa791652479846e0379a11db46898a200890710a5a1b05bd1b03d9eac023",
    (7,): "d13925edc08664f932fbc3aa08295ea7d7378e81dea09839dd4b0b0ce1e4a3e3",
    (7, "--class", "connected", "--stats", "t1,terminal-count"):
        "0559d9c55608f6aced1db0082fcbf37910b88b561a9ba8ad0923fb0c11391072",
    (7, "--class", "one-terminal", "--stats", "terminality,kappa"):
        "288d851040fea4bb4ced91b681b896212fea58e18f7aff268b28541e0c5f8e8b",
    (7, "--stats", "crossings,nestings"):
        "2f5e8e25a33f208033289430addf61723830cd1f7621915c5624fcda57dc7868",
}


def matchings(n: int):
    """Every perfect matching of 1..2n as a list of (a, b) with a < b."""

    def rec(points):
        if not points:
            yield []
            return
        a = points[0]
        for i in range(1, len(points)):
            for tail in rec(points[1:i] + points[i + 1:]):
                yield [(a, points[i])] + tail

    yield from rec(tuple(range(1, 2 * n + 1)))


def crossing_graph(pairs):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(len(pairs)))
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs[i + 1:], i + 1):
            if a < c < b < d or c < a < d < b:
                g.add_edge(i, j)
    return g


def main() -> None:
    import networkx as nx

    for n in sorted(BIPARTITE):
        bip = k3 = 0
        for pairs in matchings(n):
            g = crossing_graph(pairs)
            bip += nx.is_bipartite(g)
            k3 += sum(nx.triangles(g).values()) == 0
        print("n=%d bipartite=%d K3-free=%d" % (n, bip, k3))


if __name__ == "__main__":
    main()
