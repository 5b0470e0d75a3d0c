package adaptmr

// RunFleetOnlineOnCell is RunFleetOnline with onCell called on each
// cell's worker after the cell's controller attached.
func RunFleetOnlineOnCell(s FleetScenario, onCell func(cell int), opts ...Option) (*FleetResult, []OnlineOutcome, error) {
	return runFleetOnline(s, buildOptions(opts), onCell)
}

// MustParsePair is ParsePair for known-valid literals.
func MustParsePair(s string) Pair {
	p, err := ParsePair(s)
	if err != nil {
		panic(err)
	}
	return p
}
