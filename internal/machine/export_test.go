package machine

import "chats/internal/mem"

// Hooks for the external test package (package machine_test).

// LockAddr is the global fallback lock's address in m.
func LockAddr(m *Machine) mem.Addr { return m.lockAddr }

// UpdateGolden reports whether the run asked to rewrite golden files.
func UpdateGolden() bool { return *update }
