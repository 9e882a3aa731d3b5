package profile

// Save and Load reach a store entry named by tag and kernel name, for
// the external tests of package profile_test.
func (s Store) Save(tag string, pr *Profile) error { return s.save(testEntry(tag, pr.Kernel), pr) }

func (s Store) Load(tag, kernel string) (*Profile, error) { return s.load(testEntry(tag, kernel)) }
