// Package website models the attack's target: an isidewith.com-like survey
// site as described in the paper's §V. The result webpage is an HTML page
// with 47 embedded objects (JavaScript, stylesheets, images); the
// quiz-result HTML of ≈9500 bytes is the 6th object the browser downloads,
// and a results script triggers eight consecutive emblem-image requests —
// one per political party, in the user's preference order, with sizes
// between 5 KB and 16 KB that uniquely identify each party.
//
// The catalog is deterministic; per-trial variation comes from the user's
// preference permutation and the network/server randomness, mirroring the
// paper's ≈500 volunteer runs.
package website

import (
	"fmt"
	"time"

	"h2privacy/internal/simtime"
)

// Object kinds.
const (
	TypeHTML   = "html"
	TypeJS     = "js"
	TypeCSS    = "css"
	TypeImage  = "img"
	TypeFont   = "font"
	TypeEmblem = "emblem"
)

// Object is one resource served by the site.
type Object struct {
	ID   string
	Path string
	Type string
	Size int
	// Dynamic marks server-side-generated resources (the survey result
	// pages): the server renders them incrementally, so their first byte
	// is late and their body streams out over hundreds of milliseconds —
	// the window in which neighbouring static objects interleave with
	// them (the ≈98 % baseline multiplexing of the quiz HTML, §IV).
	Dynamic bool
}

// PartyCount is the number of parties in the survey result.
const PartyCount = 8

// Well-known object IDs.
const (
	// BaseID is the result webpage that embeds everything else.
	BaseID = "base"
	// TargetID is the paper's first object of interest: the ≈9500-byte
	// quiz HTML, 6th in download order.
	TargetID = "quiz"
	// ResultsJSID is the script whose execution triggers the emblem
	// requests.
	ResultsJSID = "results-js"
)

// TargetSize is the quiz HTML size used throughout the paper.
const TargetSize = 9500

// emblemSizes are the party-emblem image sizes (5–16 KB, pairwise distinct
// and distinct from every other object on the site — the identifiability
// conditions from §II).
var emblemSizes = [PartyCount]int{15872, 14336, 12544, 11008, 9984, 8192, 6656, 5120}

// partyNames label the emblems in catalog (party-index) order.
var partyNames = [PartyCount]string{
	"democratic", "republican", "libertarian", "green",
	"constitution", "reform", "socialist", "independence",
}

// Site is the target website catalog. A built Site is read-only: a
// decoy catalog from Decoys is shared by every trial on its worker.
type Site struct {
	Host    string
	Objects []Object // catalog order: download order with emblems in party order
	byID    map[string]*Object
	byPath  map[string]*Object
	seq     *Plan // a Decoys catalog's SequentialPlan, built with it
}

// EmblemID returns the object id of party p's emblem (0-based).
func EmblemID(p int) string { return fmt.Sprintf("emblem-%s", partyNames[p]) }

// ISideWith builds the deterministic target-site catalog.
func ISideWith() *Site {
	s := &Site{Host: "www.isidewith.test"}
	add := func(id, typ string, size int, path string) {
		s.Objects = append(s.Objects, Object{
			ID: id, Path: path, Type: typ, Size: size,
			Dynamic: typ == TypeHTML,
		})
	}
	// Download order, per §V: base page, four head resources, then the
	// quiz HTML as the 6th object.
	add(BaseID, TypeHTML, 28_411, "/polls/2020-presidential")
	add("app-js", TypeJS, 54_902, "/static/app.js")
	add("style-css", TypeCSS, 38_277, "/static/style.css")
	add("vendor-js", TypeJS, 88_133, "/static/vendor.js")
	add("logo", TypeImage, 11_432, "/static/logo.png")
	add(TargetID, TypeHTML, TargetSize, "/polls/2020-presidential/results")
	// Mid-page resources (objects 7..21). Sizes avoid colliding with the
	// emblems and the quiz HTML.
	mids := []struct {
		id   string
		typ  string
		size int
	}{
		{"analytics-js", TypeJS, 17_254}, {"fonts-css", TypeCSS, 4_380},
		{"banner", TypeImage, 47_119}, {"icons", TypeImage, 22_961},
		{"share-js", TypeJS, 12_040}, {"poll-css", TypeCSS, 7_733},
		{"chart-js", TypeJS, 61_875}, {"bg", TypeImage, 93_512},
		{"font-main", TypeFont, 31_668}, {"font-bold", TypeFont, 29_204},
		{"avatar", TypeImage, 3_145}, {"map-js", TypeJS, 41_530},
		{"county-css", TypeCSS, 2_894}, {"spinner", TypeImage, 1_276},
	}
	for _, m := range mids {
		add(m.id, m.typ, m.size, "/static/"+m.id)
	}
	add(ResultsJSID, TypeJS, 23_488, "/static/results.js")
	// The eight emblems, catalog order = party order.
	for p := 0; p < PartyCount; p++ {
		add(EmblemID(p), TypeEmblem, emblemSizes[p], fmt.Sprintf("/emblems/%s.png", partyNames[p]))
	}
	// Tail resources (completing the 47 embedded objects).
	tails := []struct {
		id   string
		typ  string
		size int
	}{
		{"footer-js", TypeJS, 9_122}, {"social", TypeImage, 13_561},
		{"ad-1", TypeImage, 36_470}, {"ad-2", TypeImage, 24_998},
		{"tracker-js", TypeJS, 2_311}, {"consent-js", TypeJS, 6_084},
		{"badge", TypeImage, 5_693}, {"thumb-1", TypeImage, 18_842},
		{"thumb-2", TypeImage, 19_356}, {"thumb-3", TypeImage, 20_167},
		{"print-css", TypeCSS, 3_904}, {"feedback-js", TypeJS, 8_457},
		{"sprite", TypeImage, 44_209}, {"locale-js", TypeJS, 10_733},
		{"beacon", TypeImage, 842}, {"hero", TypeImage, 67_381},
		{"poll-archive-js", TypeJS, 16_903}, {"flag-strip", TypeImage, 27_540},
		{"privacy-css", TypeCSS, 1_731},
	}
	for _, m := range tails {
		add(m.id, m.typ, m.size, "/static/"+m.id)
	}

	s.byID = make(map[string]*Object, len(s.Objects))
	s.byPath = make(map[string]*Object, len(s.Objects))
	for i := range s.Objects {
		o := &s.Objects[i]
		if _, dup := s.byID[o.ID]; dup {
			panic("website: duplicate object id " + o.ID)
		}
		if _, dup := s.byPath[o.Path]; dup {
			panic("website: duplicate object path " + o.Path)
		}
		s.byID[o.ID] = o
		s.byPath[o.Path] = o
	}
	return s
}

// decoyGaps chain a decoy plan's embedded objects — small deterministic
// spacings in the same regime as the target site's mid-page gaps.
var decoyGaps = []time.Duration{
	3 * time.Millisecond, 11 * time.Millisecond, 2 * time.Millisecond,
	24 * time.Millisecond, 7 * time.Millisecond, 15 * time.Millisecond,
	5 * time.Millisecond, 9 * time.Millisecond,
}

// Decoys memoizes one sweep worker's decoy catalogs; the zero value is
// empty. It lives in the worker's pool.Arena, not in a package variable:
// a process-wide memo of a thousand catalogs stays live after the fleet
// is done, and every later garbage collection has to mark it.
type Decoys struct {
	sites []*Site
}

// Site returns decoy idx's catalog (DecoySite) with its SequentialPlan
// built, building both on the first request for idx and returning the
// same read-only *Site after. A nil Decoys builds a fresh catalog every
// call.
func (d *Decoys) Site(idx int) *Site {
	idx = max(idx, 0)
	if d == nil {
		return DecoySite(idx)
	}
	if idx >= len(d.sites) {
		d.sites = append(d.sites, make([]*Site, idx+1-len(d.sites))...)
	}
	if d.sites[idx] == nil {
		s := DecoySite(idx)
		s.seq, _ = s.SequentialPlan() // never fails: a decoy has objects
		d.sites[idx] = s
	}
	return d.sites[idx]
}

// DecoySite builds the deterministic catalog of fleet decoy flow idx: a
// small page (base HTML plus a handful of embedded objects) whose total
// transfer stays well under the target site's 28 KB base page, so
// size-based target selection at the shared bottleneck has a real margin
// to clear. Catalogs vary deterministically with idx — no RNG — and every
// object size stays clear of the target catalog's identifying sizes.
func DecoySite(idx int) *Site {
	if idx < 0 {
		idx = 0
	}
	s := &Site{Host: fmt.Sprintf("decoy-%04d.test", idx)}
	add := func(id, typ string, size int, path string) {
		s.Objects = append(s.Objects, Object{ID: id, Path: path, Type: typ, Size: size})
	}
	// Base page: 2–6 KB, stepping deterministically with idx. The +1 keeps
	// every size odd-ish and off the target catalog's entries.
	base := 2048 + (idx*397)%4096 + 1
	add(BaseID, TypeHTML, base, "/")
	// 3–6 embedded objects totalling at most ~16 KB.
	n := 3 + idx%4
	kinds := []string{TypeJS, TypeCSS, TypeImage}
	for i := 0; i < n; i++ {
		size := 512 + ((idx*131+i*977)%3800 + 1)
		add(fmt.Sprintf("obj-%d", i), kinds[i%len(kinds)], size,
			fmt.Sprintf("/static/obj-%d", i))
	}
	s.byID = make(map[string]*Object, len(s.Objects))
	s.byPath = make(map[string]*Object, len(s.Objects))
	for i := range s.Objects {
		o := &s.Objects[i]
		s.byID[o.ID] = o
		s.byPath[o.Path] = o
	}
	return s
}

// SequentialPlan builds a generic request schedule covering the whole
// catalog in order: the base page, then each embedded object chained at
// small deterministic gaps once the base completes. It works for any
// catalog (fleet decoys use it); the target site keeps its Table II
// schedule via PlanFor. A Decoys catalog returns the plan built with it,
// shared and read-only like the catalog.
func (s *Site) SequentialPlan() (*Plan, error) {
	if s.seq != nil {
		return s.seq, nil
	}
	if len(s.Objects) == 0 {
		return nil, fmt.Errorf("website: empty catalog")
	}
	plan := &Plan{}
	plan.Steps = append(plan.Steps, Step{ObjectID: s.Objects[0].ID})
	for i, o := range s.Objects[1:] {
		st := Step{ObjectID: o.ID, Gap: decoyGaps[i%len(decoyGaps)]}
		if i == 0 {
			st.TriggerDone = s.Objects[0].ID
		}
		plan.Steps = append(plan.Steps, st)
	}
	return plan, nil
}

// Object returns the catalog entry with the given id, or nil.
func (s *Site) Object(id string) *Object { return s.byID[id] }

// Lookup returns the catalog entry serving the given path, or nil.
func (s *Site) Lookup(path string) *Object { return s.byPath[path] }

// EmbeddedCount reports the number of embedded objects (excludes the base
// page); the paper's site embeds 47.
func (s *Site) EmbeddedCount() int { return len(s.Objects) - 1 }

// Body returns the deterministic response body for an object: byte i is
// byte(len(o.ID)) + byte(i*131). The slice is shared and READ-ONLY —
// callers must copy before modifying (every consumer does: h2 DATA frames
// and h1 responses copy into their own buffers). Its capacity equals its
// length, so an append can never write into the shared storage.
func (s *Site) Body(o *Object) []byte {
	seed := byte(len(o.ID))
	if o.Size <= len(bodyPattern)-255 {
		// byte(i*131) has period 256 and 131 is odd, so shifting the
		// pattern by k, where k·131 ≡ seed (mod 256), adds seed to every
		// byte. 43 is 131's inverse mod 256.
		k := int(seed * 43)
		return bodyPattern[k : k+o.Size : k+o.Size]
	}
	b := make([]byte, o.Size)
	for i := range b {
		b[i] = seed + byte(i*131)
	}
	return b
}

// bodyPattern backs every body up to 128 KiB (all catalog objects); only
// larger custom objects allocate.
var bodyPattern = func() []byte {
	b := make([]byte, 128<<10+255)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// Sizes maps every object id to its body size.
func (s *Site) Sizes() map[string]int {
	m := make(map[string]int, len(s.Objects))
	for _, o := range s.Objects {
		m[o.ID] = o.Size
	}
	return m
}

// SizeToIdentity returns the pre-compiled size→object-id map the paper's
// adversary carries (§V), covering every uniquely-sized object.
func (s *Site) SizeToIdentity() map[int]string {
	m := make(map[int]string, len(s.Objects))
	dup := make(map[int]bool)
	for _, o := range s.Objects {
		if _, seen := m[o.Size]; seen {
			dup[o.Size] = true
			continue
		}
		m[o.Size] = o.ID
	}
	for size := range dup {
		delete(m, size)
	}
	return m
}

// RandomPerm draws a user preference permutation over the parties.
func RandomPerm(rng *simtime.Rand) []int { return rng.Perm(PartyCount) }

// Plan is the browser's request schedule for one page load.
type Plan struct {
	Steps []Step
	// Perm is the user's preference permutation: Perm[i] is the party
	// (catalog index) displayed at rank i.
	Perm []int
	// RequestOrder, when non-nil, is the emblem request order when it
	// differs from the display order (the §VII randomization defense).
	RequestOrder []string
}

// Step schedules one request.
type Step struct {
	ObjectID string
	// TriggerDone, when non-empty, delays the step until that object's
	// response completes (browser dependency); otherwise the step chains
	// to the previous step's request issuance.
	TriggerDone string
	// Gap is the delay after the trigger event.
	Gap time.Duration
}

// Table II inter-request gaps for the emblem images: I1 fires 780 ms after
// the previous request; I2..I8 chain at sub-millisecond spacings.
var emblemGaps = [PartyCount]time.Duration{
	780 * time.Millisecond,
	400 * time.Microsecond,
	2 * time.Millisecond,
	300 * time.Microsecond,
	100 * time.Microsecond,
	300 * time.Microsecond,
	2 * time.Millisecond,
	500 * time.Microsecond,
}

// midGaps are the inter-request gaps for objects 7..21 (chained).
var midGaps = []time.Duration{
	160 * time.Millisecond, // object 7 follows the quiz HTML by 160 ms (Table II)
	3 * time.Millisecond, 40 * time.Millisecond, 1 * time.Millisecond,
	25 * time.Millisecond, 2 * time.Millisecond, 70 * time.Millisecond,
	5 * time.Millisecond, 12 * time.Millisecond, 800 * time.Microsecond,
	30 * time.Millisecond, 9 * time.Millisecond, 4 * time.Millisecond,
	55 * time.Millisecond, 15 * time.Millisecond,
}

// tailGaps schedule the remaining objects after the emblems.
var tailGaps = []time.Duration{
	26 * time.Millisecond, // object after I8 (Table II)
	6 * time.Millisecond, 90 * time.Millisecond, 2 * time.Millisecond,
	18 * time.Millisecond, 35 * time.Millisecond, 1 * time.Millisecond,
	48 * time.Millisecond, 3 * time.Millisecond, 11 * time.Millisecond,
	7 * time.Millisecond, 22 * time.Millisecond, 60 * time.Millisecond,
	2 * time.Millisecond, 14 * time.Millisecond, 5 * time.Millisecond,
	33 * time.Millisecond, 8 * time.Millisecond, 20 * time.Millisecond,
}

// PlanFor builds the request schedule for a user whose survey result
// orders the parties by perm (rank → party index).
func (s *Site) PlanFor(perm []int) (*Plan, error) {
	if len(perm) != PartyCount {
		return nil, fmt.Errorf("website: permutation must cover %d parties, got %d", PartyCount, len(perm))
	}
	seen := make(map[int]bool, PartyCount)
	for _, p := range perm {
		if p < 0 || p >= PartyCount || seen[p] {
			return nil, fmt.Errorf("website: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	plan := &Plan{Perm: append([]int(nil), perm...)}
	add := func(st Step) { plan.Steps = append(plan.Steps, st) }

	add(Step{ObjectID: BaseID})
	// Head resources burst once the base page arrives.
	add(Step{ObjectID: "app-js", TriggerDone: BaseID, Gap: 1 * time.Millisecond})
	add(Step{ObjectID: "style-css", Gap: 500 * time.Microsecond})
	add(Step{ObjectID: "vendor-js", Gap: 700 * time.Microsecond})
	add(Step{ObjectID: "logo", Gap: 2 * time.Millisecond})
	// The quiz HTML follows 500 ms after the previous request (Table II).
	add(Step{ObjectID: TargetID, Gap: 500 * time.Millisecond})
	// Mid-page resources, chained.
	mids := []string{
		"analytics-js", "fonts-css", "banner", "icons", "share-js",
		"poll-css", "chart-js", "bg", "font-main", "font-bold",
		"avatar", "map-js", "county-css", "spinner", ResultsJSID,
	}
	for i, id := range mids {
		add(Step{ObjectID: id, Gap: midGaps[i]})
	}
	// Emblems: the results script runs once downloaded, then requests the
	// emblems in preference order at Table II spacings. The first emblem
	// request requires the script to have completed.
	for rank, party := range perm {
		st := Step{ObjectID: EmblemID(party), Gap: emblemGaps[rank]}
		if rank == 0 {
			st.TriggerDone = ResultsJSID
		}
		add(st)
	}
	// Tail resources.
	tails := []string{
		"footer-js", "social", "ad-1", "ad-2", "tracker-js", "consent-js",
		"badge", "thumb-1", "thumb-2", "thumb-3", "print-css",
		"feedback-js", "sprite", "locale-js", "beacon", "hero",
		"poll-archive-js", "flag-strip", "privacy-css",
	}
	for i, id := range tails {
		add(Step{ObjectID: id, Gap: tailGaps[i]})
	}
	if len(plan.Steps) != len(s.Objects) {
		return nil, fmt.Errorf("website: plan has %d steps for %d objects", len(plan.Steps), len(s.Objects))
	}
	return plan, nil
}

// PlanForShuffled is the §VII defense: the client requests the emblems in
// a random order unrelated to the display order, so the request sequence
// the adversary reconstructs no longer reveals the user's preferences.
// perm remains the (secret) display order; requestOrder is drawn from rng.
func (s *Site) PlanForShuffled(perm []int, rng *simtime.Rand) (*Plan, error) {
	plan, err := s.PlanFor(perm)
	if err != nil {
		return nil, err
	}
	// Re-map the emblem steps to a random request order, keeping every
	// other step (and the display-order ground truth in Perm) intact.
	shuffle := rng.Perm(PartyCount)
	idx := make([]int, 0, PartyCount)
	for i, st := range plan.Steps {
		if s.Object(st.ObjectID).Type == TypeEmblem {
			idx = append(idx, i)
		}
	}
	reqOrder := make([]string, PartyCount)
	for i, slot := range shuffle {
		reqOrder[i] = EmblemID(perm[slot])
	}
	for i, stepIdx := range idx {
		plan.Steps[stepIdx].ObjectID = reqOrder[i]
	}
	plan.RequestOrder = reqOrder
	return plan, nil
}

// EmblemRequestOrder returns the object ids of the emblems in the order
// the plan requests them (what the adversary can hope to reconstruct from
// traffic). Without the §VII defense this equals EmblemDisplayOrder.
func (p *Plan) EmblemRequestOrder() []string {
	if p.RequestOrder != nil {
		return append([]string(nil), p.RequestOrder...)
	}
	return p.EmblemDisplayOrder()
}

// EmblemDisplayOrder returns the ground-truth display order — the user's
// survey result the attack ultimately wants.
func (p *Plan) EmblemDisplayOrder() []string {
	ids := make([]string, 0, PartyCount)
	for _, rank := range p.Perm {
		ids = append(ids, EmblemID(rank))
	}
	return ids
}

// PartyName returns the display name for a party index.
func PartyName(p int) string { return partyNames[p] }
