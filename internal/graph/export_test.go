package graph

// SetParts makes Build and FromCSR run their counting sorts over p parts
// (0 restores the default choice by size) and returns the previous count.
func SetParts(p int) int {
	old := testParts
	testParts = p
	return old
}
