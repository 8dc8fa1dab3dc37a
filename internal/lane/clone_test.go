package lane

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declaration for the lane core; clonecheck fails this
// test when a field is added without one, so Clone cannot silently
// fall out of date.

func TestCloneCoversCore(t *testing.T) {
	clonecheck.Check(t, &Core{}, map[string]string{
		"ID":     "value copy",
		"cfg":    "value copy",
		"vmach":  "rebased onto the caller's cloned VM",
		"icache": "deep copy, rebased onto the caller's cloned L2",
		"l2":     "rebased onto the caller's cloned L2",
		"pred":   "deep copy",
		"slab":   "rebased onto the caller's cloned slab",

		"tid":    "value copy",
		"active": "value copy",

		"fetchQ": "handles copied, preserving positional None holes",
		"rob":    "handles copied onto a fresh base array",
		"robArr": "fresh base array at the original capacity (rob rebased at offset 0)",

		"regScratch": "reset: per-fetch scratch",

		"lastWriter": "value copy (array of handles)",

		"haltFetched":   "value copy",
		"pendingBranch": "value copy (handle)",
		"blockedUop":    "value copy (handle)",
		"stallUntil":    "value copy",
		"curLine":       "value copy",

		"OnRetire": "re-wired by core.Machine.Fork (closure must capture the fork)",
		"Err":      "value copy",

		"Fetched": "value copy",
		"Issued":  "value copy",
		"Retired": "value copy",

		"StallOperand": "value copy",
		"StallMemPort": "value copy",
	})
}
