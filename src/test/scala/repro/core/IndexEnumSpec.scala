package repro.core

import repro.{RefGraph, ReproSpec, TestGraphs}

class IndexEnumSpec extends ReproSpec {

  private val all = EnumConfig(timeBudgetMs = 300000L, collectPaths = true)

  private def csr(pairs: Seq[(Long, Long)], q: HcQuery): IndexCsr = {
    val idx = LightIndex.build(spark, edgeDf(pairs), q)
    try idx.csr finally idx.unpersist()
  }

  test("a zero budget kills IDX-DFS and IDX-JOIN with a subset of the paths") {
    val q = HcQuery(1L, 2L, 4)
    val g = csr(TestGraphs.layered, q)
    val want = RefGraph.Ref(TestGraphs.layered).paths(1L, 2L, 4)
    val cfg = all.copy(timeBudgetMs = 0L)
    for (r <- IndexEnum.dfs(g, cfg) +: (1 until q.k).map(IndexEnum.join(g, _, cfg))) {
      assert(r.timedOut)
      assert(pathSet(r).subsetOf(want))
    }
  }

  test("the row cap truncates IDX-JOIN to the same subset on every run") {
    val q = HcQuery(1L, 2L, 4)
    val g = csr(TestGraphs.layered, q)
    val want = RefGraph.Ref(TestGraphs.layered).paths(1L, 2L, 4)
    val cfg = all.copy(maxLevelRows = 3)
    val (a, b) = (IndexEnum.join(g, 2, cfg), IndexEnum.join(g, 2, cfg))
    assert(a.timedOut && b.timedOut)
    assert(a.results > 0 && pathSet(a).subsetOf(want) && pathSet(a).size < want.size)
    assert(pathSet(a) == pathSet(b))
  }

  test("IDX-DFS counts paths by length and keeps one path on its stack") {
    val q = HcQuery(1L, 2L, 4)
    val r = IndexEnum.dfs(csr(TestGraphs.figure1, q), all)
    assert(r.perLevel == Seq(0L, 1L, 0L, 1L))
    assert(r.peakPartialCells <= q.k + 1)
    assert(r.responseMs.isDefined && !r.timedOut)
  }

  for ((name, pairs) <- TestGraphs.randomCases(6, n = 11, e = 26); k <- Seq(3, 5)) {
    test(s"IDX-DFS and IDX-JOIN (all cuts) equal reference on $name k=$k") {
      val q = HcQuery(1L, 2L, k)
      val g = csr(pairs, q)
      val want = RefGraph.Ref(pairs).paths(1L, 2L, k)
      assert(pathSet(IndexEnum.dfs(g, all)) == want)
      for (cut <- 1 until k) assert(pathSet(IndexEnum.join(g, cut, all)) == want, s"cut=$cut")
    }
  }
}
