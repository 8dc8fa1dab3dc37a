package scalar

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declarations for the scalar unit; clonecheck fails
// these tests when a field is added without one, so Clone cannot
// silently fall out of date.

func TestCloneCoversUnit(t *testing.T) {
	clonecheck.Check(t, &Unit{}, map[string]string{
		"ID":         "value copy",
		"cfg":        "value copy",
		"vmach":      "rebased onto the caller's cloned VM",
		"icache":     "deep copy, rebased onto the caller's cloned L2",
		"dcache":     "deep copy, rebased onto the caller's cloned L2",
		"pred":       "deep copy",
		"vsink":      "re-wired by core.Machine.Fork via SetVectorSink",
		"ctxs":       "deep copy via context.clone",
		"slab":       "rebased onto the caller's cloned slab",
		"window":     "value copy of the handles",
		"fetchRR":    "value copy",
		"retireRR":   "value copy",
		"fetchReady": "reset: per-cycle scratch, repopulated every fetch",
		"regScratch": "reset: per-dispatch scratch",
		"OnRetire":   "re-wired by core.Machine.Fork (closure must capture the fork)",
		"Err":        "value copy",
		"dropNext":   "value copy (armed fault injection carries over)",

		"Fetched":     "value copy",
		"Dispatched":  "value copy",
		"IssuedCount": "value copy",
		"Retired":     "value copy",

		"FetchStallBranch": "value copy",
		"FetchStallICache": "value copy",
		"DispStallROB":     "value copy",
		"DispStallWindow":  "value copy",
		"DispStallVIQ":     "value copy",
	})
}

func TestCloneCoversContext(t *testing.T) {
	clonecheck.Check(t, &context{}, map[string]string{
		"slot":   "value copy",
		"tid":    "value copy",
		"active": "value copy",

		"fetchQ": "handles copied onto a fresh base array",
		"rob":    "handles copied onto a fresh base array",
		"robCap": "value copy",

		"fetchQArr": "fresh base array at the original capacity (queues rebased at offset 0)",
		"robArr":    "fresh base array at the original capacity (queues rebased at offset 0)",

		"lastWriter": "value copy (array of handles)",

		"haltFetched":   "value copy",
		"pendingBranch": "value copy (handle)",
		"blockedUop":    "value copy (handle)",
		"stallUntil":    "value copy",
		"curLine":       "value copy",
	})
}
