package website

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"h2privacy/internal/simtime"
)

func TestCatalogShape(t *testing.T) {
	s := ISideWith()
	if s.EmbeddedCount() != 47 {
		t.Fatalf("embedded objects = %d, want 47 (paper §V)", s.EmbeddedCount())
	}
	target := s.Object(TargetID)
	if target == nil || target.Size != 9500 {
		t.Fatalf("quiz HTML = %+v, want 9500 bytes", target)
	}
	// The quiz HTML is the 6th object in download order.
	if s.Objects[5].ID != TargetID {
		t.Fatalf("6th object is %q, want %q", s.Objects[5].ID, TargetID)
	}
	emblems := 0
	for _, o := range s.Objects {
		if o.Type == TypeEmblem {
			emblems++
			if o.Size < 5*1024 || o.Size > 16*1024 {
				t.Fatalf("emblem %s size %d outside 5–16KB", o.ID, o.Size)
			}
		}
	}
	if emblems != PartyCount {
		t.Fatalf("emblems = %d", emblems)
	}
}

func TestUniqueSizesForObjectsOfInterest(t *testing.T) {
	s := ISideWith()
	counts := map[int]int{}
	for _, o := range s.Objects {
		counts[o.Size]++
	}
	check := []string{TargetID}
	for p := 0; p < PartyCount; p++ {
		check = append(check, EmblemID(p))
	}
	for _, id := range check {
		o := s.Object(id)
		if counts[o.Size] != 1 {
			t.Fatalf("object %s size %d is not unique (%d collisions) — the §II identifiability condition fails", id, o.Size, counts[o.Size])
		}
	}
}

func TestSizeToIdentityMapsObjectsOfInterest(t *testing.T) {
	s := ISideWith()
	m := s.SizeToIdentity()
	if m[9500] != TargetID {
		t.Fatalf("9500 → %q", m[9500])
	}
	for p := 0; p < PartyCount; p++ {
		o := s.Object(EmblemID(p))
		if m[o.Size] != o.ID {
			t.Fatalf("size %d → %q, want %q", o.Size, m[o.Size], o.ID)
		}
	}
}

func TestLookupAndBody(t *testing.T) {
	s := ISideWith()
	o := s.Lookup("/polls/2020-presidential/results")
	if o == nil || o.ID != TargetID {
		t.Fatalf("lookup = %+v", o)
	}
	if s.Lookup("/nope") != nil {
		t.Fatal("bogus path resolved")
	}
	body := s.Body(o)
	if len(body) != o.Size {
		t.Fatalf("body length %d, want %d", len(body), o.Size)
	}
	if b2 := s.Body(o); string(b2) != string(body) {
		t.Fatal("body not deterministic")
	}
}

func TestPlanCoversAllObjectsOnce(t *testing.T) {
	s := ISideWith()
	perm := []int{3, 1, 4, 0, 7, 6, 2, 5}
	plan, err := s.PlanFor(perm)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, st := range plan.Steps {
		if s.Object(st.ObjectID) == nil {
			t.Fatalf("step references unknown object %q", st.ObjectID)
		}
		if seen[st.ObjectID] {
			t.Fatalf("object %q requested twice", st.ObjectID)
		}
		seen[st.ObjectID] = true
	}
	if len(seen) != len(s.Objects) {
		t.Fatalf("plan covers %d/%d objects", len(seen), len(s.Objects))
	}
}

func TestPlanEmblemOrderFollowsPerm(t *testing.T) {
	s := ISideWith()
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0}
	plan, err := s.PlanFor(perm)
	if err != nil {
		t.Fatal(err)
	}
	order := plan.EmblemRequestOrder()
	for i, want := range perm {
		if order[i] != EmblemID(want) {
			t.Fatalf("rank %d: %q, want %q", i, order[i], EmblemID(want))
		}
	}
	// First emblem must wait for the results script.
	var first *Step
	for i := range plan.Steps {
		if plan.Steps[i].ObjectID == EmblemID(perm[0]) {
			first = &plan.Steps[i]
		}
	}
	if first == nil || first.TriggerDone != ResultsJSID {
		t.Fatalf("first emblem step = %+v", first)
	}
}

func TestPlanRejectsBadPerms(t *testing.T) {
	s := ISideWith()
	bad := [][]int{
		{0, 1, 2},
		{0, 0, 1, 2, 3, 4, 5, 6},
		{0, 1, 2, 3, 4, 5, 6, 99},
		nil,
	}
	for _, perm := range bad {
		if _, err := s.PlanFor(perm); err == nil {
			t.Fatalf("accepted %v", perm)
		}
	}
}

// Property: every random permutation yields a valid plan whose emblem
// order round-trips.
func TestPlanPermProperty(t *testing.T) {
	s := ISideWith()
	f := func(seed int64) bool {
		rng := simtime.NewRand(seed)
		perm := RandomPerm(rng)
		plan, err := s.PlanFor(perm)
		if err != nil {
			return false
		}
		order := plan.EmblemRequestOrder()
		for i, p := range perm {
			if order[i] != EmblemID(p) {
				return false
			}
		}
		return len(plan.Steps) == len(s.Objects)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPartyName(t *testing.T) {
	if PartyName(0) != "democratic" || PartyName(7) != "independence" {
		t.Fatal("party names broken")
	}
}

func TestPlanForShuffledDecouplesOrders(t *testing.T) {
	s := ISideWith()
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rng := simtime.NewRand(99)
	plan, err := s.PlanForShuffled(perm, rng)
	if err != nil {
		t.Fatal(err)
	}
	display := plan.EmblemDisplayOrder()
	request := plan.EmblemRequestOrder()
	if len(display) != PartyCount || len(request) != PartyCount {
		t.Fatalf("orders: %v / %v", display, request)
	}
	// Same multiset of emblems...
	seen := map[string]bool{}
	for _, id := range request {
		seen[id] = true
	}
	for _, id := range display {
		if !seen[id] {
			t.Fatalf("request order missing %s", id)
		}
	}
	// ...but (for this seed) a different sequence.
	same := true
	for i := range display {
		if display[i] != request[i] {
			same = false
		}
	}
	if same {
		t.Fatal("shuffle produced the identity order (fix the seed)")
	}
	// The plan's emblem steps follow the request order.
	var stepOrder []string
	for _, st := range plan.Steps {
		if s.Object(st.ObjectID).Type == TypeEmblem {
			stepOrder = append(stepOrder, st.ObjectID)
		}
	}
	for i := range request {
		if stepOrder[i] != request[i] {
			t.Fatalf("plan step order %v != request order %v", stepOrder, request)
		}
	}
}

func TestPlanForShuffledPreservesNonEmblems(t *testing.T) {
	s := ISideWith()
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0}
	rng := simtime.NewRand(5)
	base, _ := s.PlanFor(perm)
	shuf, err := s.PlanForShuffled(perm, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Steps) != len(shuf.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(base.Steps), len(shuf.Steps))
	}
	for i := range base.Steps {
		if s.Object(base.Steps[i].ObjectID).Type == TypeEmblem {
			continue
		}
		if base.Steps[i] != shuf.Steps[i] {
			t.Fatalf("non-emblem step %d changed: %+v vs %+v", i, base.Steps[i], shuf.Steps[i])
		}
	}
}

// bodyFormula is Body's contract, computed the slow way.
func bodyFormula(o *Object) []byte {
	b := make([]byte, o.Size)
	for i := range b {
		b[i] = byte(len(o.ID)) + byte(i*131)
	}
	return b
}

func TestBodyMatchesFormula(t *testing.T) {
	check := func(s *Site, o *Object) {
		t.Helper()
		got := s.Body(o)
		if !bytes.Equal(got, bodyFormula(o)) {
			t.Fatalf("%s/%s: body differs from the formula", s.Host, o.ID)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s/%s: cap %d != len %d; an append could write into shared storage",
				s.Host, o.ID, cap(got), len(got))
		}
	}
	// Every seed (ID length mod 256), at sizes straddling the shared
	// pattern's limit so both the shared and the allocating path run.
	s := ISideWith()
	for seed := 0; seed < 256; seed++ {
		for _, size := range []int{0, 1, 255, 256, 9500, len(bodyPattern) - 255, len(bodyPattern) - 254, len(bodyPattern) + 1000} {
			check(s, &Object{ID: strings.Repeat("x", seed), Size: size})
		}
	}
	for i := range s.Objects {
		check(s, &s.Objects[i])
	}
	for idx := 0; idx < 1000; idx++ {
		d := DecoySite(idx)
		for i := range d.Objects {
			check(d, &d.Objects[i])
		}
	}
}

// TestDecoysMemoized pins the decoy catalog memo: every request for an
// index returns the same catalog and the same plan, and the plan still
// covers the catalog in order; a nil memo builds a fresh catalog each
// time.
func TestDecoysMemoized(t *testing.T) {
	const idx = 1234
	var d Decoys
	s := d.Site(idx)
	if d.Site(idx) != s {
		t.Fatalf("second request rebuilt decoy %d", idx)
	}
	p1, err := s.SequentialPlan()
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := d.Site(idx).SequentialPlan(); p2 != p1 {
		t.Fatal("decoy plan rebuilt on a second request")
	}
	if len(p1.Steps) != len(s.Objects) {
		t.Fatalf("plan has %d steps for %d objects", len(p1.Steps), len(s.Objects))
	}
	for i, st := range p1.Steps {
		if st.ObjectID != s.Objects[i].ID {
			t.Fatalf("step %d requests %s, want %s", i, st.ObjectID, s.Objects[i].ID)
		}
	}
	if d.Site(-3) != d.Site(0) {
		t.Fatal("a negative index is not decoy 0")
	}
	var none *Decoys
	if a, b := none.Site(idx), none.Site(idx); a == b || a.Host != s.Host || len(a.Objects) != len(s.Objects) {
		t.Fatalf("nil memo: shared=%v host %q objects %d, want a fresh copy of %q with %d", a == b, a.Host, len(a.Objects), s.Host, len(s.Objects))
	}
}
