package xen

// JourneyEntries returns how many entries each of h's journey-tracker
// maps holds, by map name.
func JourneyEntries(h *Host) map[string]int {
	return map[string]int{"guest": len(h.journeys.guest), "dom0": len(h.journeys.dom0)}
}
