package repro.core

import org.scalatest.funsuite.AnyFunSuite

class OracleModelSpec extends AnyFunSuite {

  private def model(limit: Option[Int] = None) =
    new OracleModel(Array(1.0, 2.0, 3.0, 4.0), Array(true, false, true, false), 2, limit)

  test("invoke reveals the ground truth for the record") {
    val m = model()
    assert(m.invoke(0) == (1.0, true))
    assert(m.invoke(1) == (2.0, false))
  }

  test("observe treats every record as matching without a predicate, and meters like invoke") {
    val m = model()
    assert(m.observe(1, usePredicate = true) == (2.0, false))
    assert(m.observe(1, usePredicate = false) == (2.0, true))
    assert(m.totalCalls == 1)
  }

  test("invocations are metered per segment") {
    val m = model()
    m.invoke(0); m.invoke(1); m.invoke(2)
    assert(m.callsInSegment(0) == 2)
    assert(m.callsInSegment(1) == 1)
    assert(m.totalCalls == 3)
  }

  test("repeat invocations of the same record are counted once (caching)") {
    val m = model()
    m.invoke(0); m.invoke(0); m.invoke(0)
    assert(m.totalCalls == 1)
  }

  test("exceeding the per-segment oracle limit throws") {
    val m = model(Some(1))
    m.invoke(0)
    assertThrows[IllegalArgumentException](m.invoke(1))
  }

  test("the limit applies per segment, not globally") {
    val m = model(Some(1))
    m.invoke(0)
    m.invoke(2) // different segment, fresh budget
    assert(m.totalCalls == 2)
  }

  test("out-of-range record indices are rejected") {
    assertThrows[IllegalArgumentException](model().invoke(4))
    assertThrows[IllegalArgumentException](model().invoke(-1))
  }
}
