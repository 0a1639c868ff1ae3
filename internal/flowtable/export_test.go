package flowtable

import "unsafe"

// SlotSize reports the size of one open-addressing cell holding a V,
// for the size pins of the external test package.
func SlotSize[V any]() uintptr { return unsafe.Sizeof(slot[V]{}) }
