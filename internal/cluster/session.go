package cluster

// Read-my-writes violation detector. A session read records the version
// its session has already written (sentAt's expect), and the collector
// counts a response that comes back older as one read-my-writes violation
// (rmwViolations): with session tokens on the wire that count must be zero.

// isRMWViolation is the violation predicate, factored out for deterministic
// testing: a read that expected version expect (0 = no expectation) was
// answered with servedVer. NotFound responses never count — they carry no
// copy at all, and gating them is the server's parking path's job, not the
// detector's.
func isRMWViolation(expect, servedVer uint64, notFound bool) bool {
	return expect > 0 && !notFound && servedVer < expect
}
