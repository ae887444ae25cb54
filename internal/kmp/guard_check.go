//go:build race || gompcheck

package kmp

// teamGuardEnabled arms the Team.running double-claim assertion in runTeam.
// The slot protocol hands each cached team to exactly one forker via Swap,
// so the guard is a pure assertion — it exists to turn a hot-team cache bug
// into a loud panic instead of silent state corruption. Two uncontended
// atomic RMWs are ~40% of a serialised fork, so the assertion is compiled
// in only under the race detector (how CI runs the multi-tenant storms) or
// the gompcheck build tag, and compiled to nothing in release builds.
const teamGuardEnabled = true
