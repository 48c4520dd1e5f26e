package repro.jobs

import repro.SparkSpec

/** Tests for the spark-submit entrypoint plumbing. */
class JobUtilSpec extends SparkSpec {

  test("config defaults to sf=1.0, seed=7") {
    val cfg = JobUtil.config(Array.empty)
    assert(cfg.sf === 1.0)
    assert(cfg.seed === 7L)
  }

  test("config parses sf only") {
    val cfg = JobUtil.config(Array("0.25"))
    assert(cfg.sf === 0.25)
    assert(cfg.seed === 7L)
  }

  test("config parses sf and seed") {
    val cfg = JobUtil.config(Array("0.1", "42"))
    assert(cfg.sf === 0.1)
    assert(cfg.seed === 42L)
  }

  test("config keeps the paper's thresholds as defaults") {
    val cfg = JobUtil.config(Array.empty)
    assert(cfg.preAssignM === 50.0)
    assert(cfg.hacCutM === 100.0)
    assert(cfg.centroidSepM === 50.0)
    assert(cfg.minDistM === 250.0)
  }

  test("config rejects malformed numbers") {
    // NumberFormatException is an IllegalArgumentException
    for (sf <- Seq("not-a-number", "0", "-1", "NaN", "Infinity"))
      intercept[IllegalArgumentException](JobUtil.config(Array(sf)))
  }
}
