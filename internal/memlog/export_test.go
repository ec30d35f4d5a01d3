package memlog

// UntypedContainers names the containers of s whose image payload and
// fingerprint still go through the reflective walk, for the guard test.
func UntypedContainers(s *Store) []string {
	var names []string
	for _, name := range s.order {
		if !s.containers[name].typed() {
			names = append(names, name)
		}
	}
	return names
}
