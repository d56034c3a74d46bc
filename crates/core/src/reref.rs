use crate::cast;
use crate::{Encoding, Quantization, RawEntry, INFINITE_DISTANCE};
use popt_graph::{Csr, VertexId};

/// The Rereference Matrix (paper Section IV): a quantized encoding of a
/// graph's transpose with dimensions `numCacheLines × numEpochs`.
///
/// Row `L` describes the cache line holding elements of vertices
/// `[L·vpl, (L+1)·vpl)` of the irregularly-accessed array; column `e`
/// summarizes epoch `e` of the outer loop. Entries are encoded per
/// [`Encoding`]; [`RerefMatrix::next_ref`] implements the paper's
/// Algorithm 2 on top.
///
/// Storage is row-major (`[line][epoch]`), so the double lookup of
/// Algorithm 2 (current + next epoch) touches adjacent entries.
///
/// # Example
///
/// ```
/// use popt_core::{Encoding, Quantization, RerefMatrix};
/// use popt_graph::Csr;
///
/// // One vertex per line. Vertex 0's srcData is referenced while the pull
/// // loop processes destinations 2 and 7.
/// let transpose = Csr::from_edges(8, &[(0, 2), (0, 7)])?;
/// let m = RerefMatrix::build(&transpose, 1, 1, Quantization::EIGHT, Encoding::InterIntra);
/// assert_eq!(m.next_ref(0, 0), 2);  // two epochs ahead (epoch size 1)
/// assert_eq!(m.next_ref(0, 2), 0);  // being referenced this epoch
/// assert_eq!(m.next_ref(0, 3), 4);  // next at epoch 7
/// # Ok::<(), popt_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RerefMatrix {
    quant: Quantization,
    encoding: Encoding,
    /// Outer-loop vertex count (epoch geometry quantizes this range).
    num_vertices: usize,
    /// First irregular-array vertex covered by row 0 (non-zero for tiled
    /// sub-matrices, Figure 13).
    first_vertex: u32,
    /// Irregular-array vertices covered by the rows.
    covered_vertices: usize,
    num_lines: usize,
    num_epochs: usize,
    epoch_size: u32,
    sub_epoch_size: u32,
    num_sub_epochs: u32,
    vertices_per_line: u32,
    data: Vec<u16>,
}

impl RerefMatrix {
    /// Builds the matrix from `transpose` — the CSR encoding the dimension
    /// *opposite* to the traversal (out-CSR for pull kernels, in-CSR for
    /// push kernels; `Graph::transpose_of`).
    ///
    /// `elems_per_line` is how many array elements share a 64 B line (16
    /// for 4 B data); `vertices_per_elem` is how many vertices one element
    /// covers (1 for vertex data, 64 for a bit-vector frontier word).
    ///
    /// # Panics
    ///
    /// Panics if either granularity parameter is zero.
    pub fn build(
        transpose: &Csr,
        elems_per_line: u32,
        vertices_per_elem: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> Self {
        Self::build_range(
            transpose,
            0,
            transpose.num_vertices(),
            elems_per_line,
            vertices_per_elem,
            quant,
            encoding,
        )
    }

    /// Builds a matrix covering only irregular-array vertices
    /// `[first_vertex, first_vertex + covered_vertices)` — the per-tile
    /// sub-matrix of the CSR-segmenting study ("tiling reduces the address
    /// range of random access allowing P-OPT to store only a tile of a
    /// Rereference Matrix column in LLC", Section VII-C2). Epoch geometry
    /// still quantizes the full outer loop (`transpose.num_vertices()`).
    ///
    /// # Panics
    ///
    /// Panics if the covered range exceeds the vertex space or
    /// `first_vertex` is not aligned to a line boundary.
    pub fn build_range(
        transpose: &Csr,
        first_vertex: u32,
        covered_vertices: usize,
        elems_per_line: u32,
        vertices_per_elem: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> Self {
        let mut m = Self::shell(
            transpose.num_vertices(),
            first_vertex,
            covered_vertices,
            line_vertices(elems_per_line, vertices_per_elem),
            quant,
            encoding,
        );
        let mut data = vec![0; m.num_lines * m.num_epochs];
        m.fill_lines(transpose, 0, &mut data);
        m.set_data(data);
        m
    }

    /// The rows covering irregular-array vertices `[first_vertex,
    /// first_vertex + covered_vertices)` as a matrix of their own: what
    /// [`build_range`](Self::build_range) builds over that range, since a
    /// row reads only its own vertices' references (a CSR-segmenting
    /// tile's sub-matrix, Figure 13).
    ///
    /// # Panics
    ///
    /// Panics if the range is not within this matrix's, if `first_vertex`
    /// is not line-aligned, or if the range ends inside a line that
    /// covers vertices past it.
    pub fn rows(&self, first_vertex: u32, covered_vertices: usize) -> Self {
        let mut m = Self::shell(
            self.num_vertices,
            first_vertex,
            covered_vertices,
            self.vertices_per_line,
            self.quant,
            self.encoding,
        );
        let (begin, end) = (
            first_vertex as usize,
            first_vertex as usize + covered_vertices,
        );
        let own_end = self.first_vertex as usize + self.covered_vertices;
        assert!(
            begin >= self.first_vertex as usize && end <= own_end,
            "rows must lie within the matrix"
        );
        assert!(
            end == own_end || end.is_multiple_of(self.vertices_per_line as usize),
            "rows must end at a line boundary"
        );
        let first_line = (begin - self.first_vertex as usize) / self.vertices_per_line as usize;
        let rows = self.data.chunks_exact(self.num_epochs).skip(first_line);
        m.set_data(rows.take(m.num_lines).flatten().copied().collect());
        m
    }

    /// The matrix geometry with no entries: [`set_data`](Self::set_data)
    /// supplies them. Epoch geometry quantizes `num_vertices` outer-loop
    /// vertices; rows cover irregular-array vertices
    /// `[first_vertex, first_vertex + covered_vertices)`.
    ///
    /// # Panics
    ///
    /// Panics if the covered range exceeds the vertex space or
    /// `first_vertex` is not aligned to a line boundary.
    pub(crate) fn shell(
        num_vertices: usize,
        first_vertex: u32,
        covered_vertices: usize,
        vertices_per_line: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> Self {
        assert!(vertices_per_line > 0, "granularities must be positive");
        assert!(
            (first_vertex as usize)
                .checked_add(covered_vertices)
                .is_some_and(|end| end <= num_vertices),
            "covered range must fit the vertex space"
        );
        assert_eq!(
            first_vertex % vertices_per_line,
            0,
            "tile base must align to a cache-line boundary of the irregular array"
        );
        let num_lines = covered_vertices.div_ceil(vertices_per_line as usize);
        let num_epochs = quant.epochs_spanned(num_vertices).max(1);
        let epoch_size = quant.epoch_size(num_vertices);
        let num_sub_epochs = encoding.num_sub_epochs(quant);
        let sub_epoch_size = epoch_size.div_ceil(num_sub_epochs).max(1);
        RerefMatrix {
            quant,
            encoding,
            num_vertices,
            first_vertex,
            covered_vertices,
            num_lines,
            num_epochs,
            epoch_size,
            sub_epoch_size,
            num_sub_epochs,
            vertices_per_line,
            data: Vec::new(),
        }
    }

    /// Writes the rows of lines `first_line..` into `rows` (whole rows,
    /// row-major) from `transpose`: the row routine of every builder.
    ///
    /// Each reference raises its epoch's slot in a per-epoch scratch buffer
    /// to the latest position seen: a max, so reference order does not
    /// matter and nothing is gathered or sorted. The reverse pass then
    /// encodes the row and clears the slots, so one buffer serves every row.
    ///
    /// # Panics
    ///
    /// Panics if `transpose` does not span the matrix's outer loop or
    /// `rows` runs past the last line.
    pub(crate) fn fill_lines(&self, transpose: &Csr, first_line: usize, rows: &mut [u16]) {
        assert_eq!(
            transpose.num_vertices(),
            self.num_vertices,
            "transpose must span the outer loop"
        );
        assert!(
            rows.len().is_multiple_of(self.num_epochs)
                && first_line * self.num_epochs + rows.len() <= self.num_lines * self.num_epochs,
            "rows must be whole rows within the matrix"
        );
        let (quant, encoding) = (self.quant, self.encoding);
        let epoch_of = Reciprocal::new(self.epoch_size);
        let sub_epoch_of = Reciprocal::new(self.sub_epoch_size);
        let last_sub = self.num_sub_epochs - 1;
        // Per epoch: 1 + the line's latest reference position, 0 if none.
        let mut latest = vec![0u32; self.num_epochs];
        // Covered vertices fit the 32-bit vertex space (asserted by `shell`).
        let end = cast::exact::<u32, usize>(self.first_vertex as usize + self.covered_vertices);
        let mut lo = cast::exact::<u32, usize>(
            self.first_vertex as usize + first_line * self.vertices_per_line as usize,
        );
        for row in rows.chunks_exact_mut(self.num_epochs) {
            let hi = lo.saturating_add(self.vertices_per_line).min(end);
            for v in lo..hi {
                for &r in transpose.neighbors(v) {
                    // r < num_vertices, so its epoch always has a slot.
                    if let Some(slot) = latest.get_mut(epoch_of.apply(u64::from(r))) {
                        *slot = (*slot).max(r + 1);
                    }
                }
            }
            lo = hi;
            // Reverse pass: `distance` counts epochs to the next referencing
            // epoch, u32::MAX while there is none.
            let mut distance = u32::MAX;
            let mut next_present = false;
            for (e, (entry, slot)) in row.iter_mut().zip(&mut latest).enumerate().rev() {
                let seen = std::mem::take(slot);
                let present = seen != 0;
                *entry = if present {
                    distance = 0;
                    // The epoch's start lies at or below `seen - 1`.
                    let start = e as u64 * u64::from(self.epoch_size);
                    let sub = sub_epoch_of.apply(u64::from(seen - 1) - start);
                    let sub = cast::saturate::<u32, usize>(sub).min(last_sub);
                    RawEntry::present(sub, next_present, quant, encoding).0
                } else {
                    // `absent` saturates the distance at the ∞ sentinel.
                    distance = distance.saturating_add(1);
                    RawEntry::absent(Some(distance), quant, encoding).0
                };
                next_present = present;
            }
        }
    }

    /// The raw entry for (`line`, `epoch`). Out-of-range epochs read as
    /// "never referenced".
    #[inline]
    pub fn entry(&self, line: usize, epoch: usize) -> RawEntry {
        if epoch >= self.num_epochs {
            return RawEntry::absent(None, self.quant, self.encoding);
        }
        RawEntry(self.data[line * self.num_epochs + epoch])
    }

    /// Algorithm 2: the next-reference distance (in epochs) of `line` given
    /// the outer loop is processing `current_vertex`. Returns
    /// [`INFINITE_DISTANCE`] when the entry's ∞ sentinel is hit.
    pub fn next_ref(&self, line: usize, current_vertex: VertexId) -> u32 {
        let (quant, enc) = (self.quant, self.encoding);
        let epoch_idx = current_vertex / self.epoch_size;
        let epoch = epoch_idx as usize;
        let curr = self.entry(line, epoch);
        let lift = |raw: u16| -> u32 {
            if raw >= enc.max_distance(quant) {
                INFINITE_DISTANCE
            } else {
                u32::from(raw)
            }
        };
        if !curr.is_present(quant, enc) {
            // Line 6: not referenced this epoch; payload is the distance.
            return lift(curr.distance(quant, enc));
        }
        // Lines 8-12: referenced this epoch; are we past the final access?
        let epoch_offset = current_vertex - epoch_idx * self.epoch_size;
        let curr_sub = (epoch_offset / self.sub_epoch_size).min(self.num_sub_epochs - 1);
        match enc {
            Encoding::InterOnly => 0, // no intra-epoch state: always "now"
            Encoding::InterIntra => {
                if curr_sub <= curr.last_sub_epoch(quant, enc) {
                    0
                } else {
                    // Lines 15-18: consult the next epoch column.
                    let next = self.entry(line, epoch + 1);
                    if next.is_present(quant, enc) {
                        1
                    } else {
                        let d = lift(next.distance(quant, enc));
                        d.saturating_add(1)
                    }
                }
            }
            Encoding::SingleEpoch => {
                if curr_sub <= curr.last_sub_epoch(quant, enc) {
                    0
                } else if curr.accessed_next_epoch(quant, enc) {
                    1
                } else {
                    // Only the current column is resident: beyond the next
                    // epoch the distance is unknown; report the most
                    // conservative in-range value.
                    2
                }
            }
        }
    }

    /// Quantization in force.
    pub fn quantization(&self) -> Quantization {
        self.quant
    }

    /// Entry encoding in force.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Number of rows (cache lines of the irregular array).
    pub fn num_lines(&self) -> usize {
        self.num_lines
    }

    /// Number of epoch columns actually materialized.
    pub fn num_epochs(&self) -> usize {
        self.num_epochs
    }

    /// Vertices per epoch.
    pub fn epoch_size(&self) -> u32 {
        self.epoch_size
    }

    /// Vertices covered by one matrix row.
    pub fn vertices_per_line(&self) -> u32 {
        self.vertices_per_line
    }

    /// First irregular-array vertex covered by row 0 (0 unless tiled).
    pub fn first_vertex(&self) -> u32 {
        self.first_vertex
    }

    /// Outer-loop vertex count the epoch geometry quantizes.
    pub fn outer_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Irregular-array vertices covered by the rows.
    pub fn covered_vertices(&self) -> usize {
        self.covered_vertices
    }

    /// The raw entry storage, row-major (serialization support).
    pub fn raw_data(&self) -> &[u16] {
        &self.data
    }

    /// Epoch of `vertex`.
    pub fn epoch_of(&self, vertex: VertexId) -> u32 {
        vertex / self.epoch_size
    }

    /// Bytes of one column as stored in the LLC
    /// (`numLines × bytes-per-entry`, Section IV-A).
    pub fn column_bytes(&self) -> u64 {
        self.num_lines as u64 * self.quant.bytes_per_entry()
    }

    /// Bytes that must stay LLC-resident (current + next column for the
    /// default encoding; one column for P-OPT-SE / inter-only).
    pub fn resident_bytes(&self) -> u64 {
        self.column_bytes() * self.encoding.resident_columns() as u64
    }

    /// LLC ways that must be reserved to pin [`resident_bytes`](Self::resident_bytes)
    /// (Section V-A: "reserve the minimum number of LLC ways that are
    /// sufficient").
    pub fn reserved_llc_ways(&self, llc: &popt_sim::CacheConfig) -> usize {
        (self.resident_bytes() as usize)
            .div_ceil(llc.way_bytes())
            .max(1)
    }

    /// Total matrix size in DRAM.
    pub fn total_bytes(&self) -> u64 {
        self.num_lines as u64 * self.num_epochs as u64 * self.quant.bytes_per_entry()
    }

    /// Installs entry storage for a [`shell`](Self::shell) (builders and
    /// deserialization).
    pub(crate) fn set_data(&mut self, data: Vec<u16>) {
        assert_eq!(
            data.len(),
            self.num_lines * self.num_epochs,
            "data shape mismatch"
        );
        self.data = data;
    }
}

/// Vertices one matrix row covers.
///
/// # Panics
///
/// Panics if the product overflows the 32-bit vertex space.
pub(crate) fn line_vertices(elems_per_line: u32, vertices_per_elem: u32) -> u32 {
    cast::exact(u64::from(elems_per_line) * u64::from(vertices_per_elem))
}

/// Exact `n / d` for every 32-bit `n` by one widening multiply: with
/// `m = ⌈2^64 / d⌉`, `m·d − 2^64 < d ≤ 2^32`, so `⌊n·m / 2^64⌋ = ⌊n / d⌋`
/// (Granlund & Montgomery, PLDI 1994, Theorem 4.2 with N = l = 32).
#[derive(Debug, Clone, Copy)]
struct Reciprocal(u128);

impl Reciprocal {
    fn new(d: u32) -> Self {
        assert!(d > 0, "divisor must be positive");
        Reciprocal((u128::from(u64::MAX) / u128::from(d)) + 1)
    }

    /// `⌊n / d⌋`, exact for `n < 2^32`.
    // The quotient of a 32-bit `n` fits any `usize` this crate targets.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn apply(self, n: u64) -> usize {
        ((u128::from(n) * self.0) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::{Edge, Graph};

    /// Figure 1 / Figure 5's example graph.
    fn figure1() -> Graph {
        let edges: Vec<Edge> = vec![
            (0, 2),
            (1, 0),
            (1, 4),
            (2, 0),
            (2, 1),
            (2, 3),
            (3, 1),
            (3, 4),
            (4, 0),
            (4, 2),
        ];
        Graph::from_edges(5, &edges).expect("valid example")
    }

    /// A quantization with 2 vertices per epoch over 5 vertices, matching
    /// Figure 5's "each epoch spanning two vertices" (3 epochs). Achieved
    /// with 2-bit quantization: ceil(5/4) = 2 vertices/epoch.
    fn figure5_matrix(encoding: Encoding) -> RerefMatrix {
        let g = figure1();
        RerefMatrix::build(g.out_csr(), 1, 1, Quantization::new(2), encoding)
    }

    #[test]
    fn figure5_inter_only_entries() {
        // Expected from the paper's text: C0 row = [1, 0, M].
        let m = figure5_matrix(Encoding::InterOnly);
        assert_eq!(m.epoch_size(), 2);
        assert_eq!(m.num_epochs(), 3);
        let q = m.quantization();
        let sentinel = Encoding::InterOnly.max_distance(q);
        let row = |l: usize| -> Vec<u16> { (0..3).map(|e| m.entry(l, e).0).collect() };
        assert_eq!(row(0), vec![1, 0, sentinel]); // S0 -> {D2}
        assert_eq!(row(1), vec![0, 1, 0]); // S1 -> {D0, D4}
        assert_eq!(row(2), vec![0, 0, sentinel]); // S2 -> {D0, D1, D3}
        assert_eq!(row(3), vec![0, 1, 0]); // S3 -> {D1, D4}
        assert_eq!(row(4), vec![0, 0, sentinel]); // S4 -> {D0, D2}
    }

    #[test]
    fn algorithm2_tracks_intra_epoch_final_access() {
        // S2 (line 2) is referenced at D0, D1, D3: within epoch 0 its final
        // access is D1 (sub-epoch 1 of {D0=sub0, D1=sub1... with epoch size
        // 2 and 1 sub-epoch? 2-bit quantization has 1 payload bit -> 1
        // sub-epoch), so intra-epoch resolution is coarse here; use 8-bit
        // quantization (epoch size 1) for exact checks instead.
        let g = figure1();
        let m = RerefMatrix::build(g.out_csr(), 1, 1, Quantization::EIGHT, Encoding::InterIntra);
        assert_eq!(m.epoch_size(), 1);
        // S1 -> {D0, D4}: at D0 distance 0; at D1..D3 distance to D4.
        assert_eq!(m.next_ref(1, 0), 0);
        assert_eq!(m.next_ref(1, 1), 3);
        assert_eq!(m.next_ref(1, 3), 1);
        assert_eq!(m.next_ref(1, 4), 0);
        // S0 -> {D2} only: beyond D2 never referenced again.
        assert_eq!(m.next_ref(0, 3), INFINITE_DISTANCE);
    }

    #[test]
    fn replacement_scenarios_of_figure3_hold() {
        // Scenario A: processing D0, cache holds {S1, S2}; S1's next ref is
        // D4, S2's is D1 -> evict S1 (larger next_ref).
        let g = figure1();
        let m = RerefMatrix::build(g.out_csr(), 1, 1, Quantization::EIGHT, Encoding::InterIntra);
        // After their D0 accesses (sub-epoch of final access passed), use
        // the *next* occurrence distances measured at D0.
        let s1 = m.next_ref(1, 0); // referenced at D0 -> 0 during the epoch
        let s2 = m.next_ref(2, 0);
        assert_eq!((s1, s2), (0, 0));
        // Immediately after D0's processing, at D1:
        assert!(
            m.next_ref(1, 1) > m.next_ref(2, 1),
            "S1 (D4) is further than S2 (D1)"
        );
        // Scenario B at D1: S2's next is D3, S4's next is D2 -> evict S2.
        assert!(m.next_ref(2, 2) > m.next_ref(4, 2) || m.next_ref(2, 1) > m.next_ref(4, 1));
    }

    #[test]
    fn long_range_reuse_saturates_to_infinity_under_narrow_quantization() {
        // Line 0 is referenced at outer vertices 1 (epoch 0) and 999
        // (epoch 15). A 4-bit inter+intra entry has a 3-bit payload, so
        // from early epochs the ~14-epoch gap exceeds the representable
        // range and must read as the ∞ sentinel — not wrap into a short
        // distance that would make the line look imminently reusable.
        let g = Graph::from_edges(1000, &[(0, 1), (0, 999)]).expect("valid");
        let q = Quantization::FOUR;
        let m = RerefMatrix::build(g.out_csr(), 1, 1, q, Encoding::InterIntra);
        assert_eq!(m.epoch_size(), 63); // ceil(1000 / 16)
        assert_eq!(Encoding::InterIntra.max_distance(q), 7);
        // Epoch 2: true distance 13 epochs — beyond the payload.
        assert_eq!(m.next_ref(0, 2 * 63), INFINITE_DISTANCE);
        // Epoch 12: true distance 3 epochs — representable exactly.
        assert_eq!(m.next_ref(0, 12 * 63), 3);
    }

    #[test]
    fn matrix_matches_brute_force_oracle_on_random_graphs() {
        use popt_graph::generators;
        let g = generators::uniform_random(600, 4000, 99);
        let quant = Quantization::EIGHT;
        let m = RerefMatrix::build(g.out_csr(), 4, 1, quant, Encoding::InterIntra);
        let es = m.epoch_size();
        // Brute force: for each line and each current vertex sample, the
        // true epoch distance to the next referencing outer vertex whose
        // epoch is >= current epoch (0 if one exists in the current epoch at
        // or after the current sub-epoch... conservatively: compare only
        // cases where the answer is unambiguous at epoch granularity).
        let mut refs: Vec<Vec<u32>> = vec![Vec::new(); m.num_lines()];
        for v in 0..600u32 {
            for &d in g.out_neighbors(v) {
                refs[(v / 4) as usize].push(d);
            }
        }
        for r in &mut refs {
            r.sort_unstable();
        }
        for line in 0..m.num_lines() {
            for &cur in &[0u32, 100, 257, 404, 599] {
                let cur_epoch = cur / es;
                let got = m.next_ref(line, cur);
                // Exact expected distance at epoch granularity, *ignoring*
                // intra-epoch loss: distance from cur_epoch to the first
                // referencing epoch >= cur_epoch, where a reference in the
                // current epoch *at or after* cur counts as 0 but an earlier
                // one may legitimately report 0 or later depending on
                // sub-epoch resolution. Only assert the unambiguous cases.
                let next_at_or_after_cur = refs[line]
                    .iter()
                    .find(|&&r| r >= cur)
                    .map(|&r| r / es - cur_epoch);
                let any_in_cur_epoch = refs[line].iter().any(|&r| r / es == cur_epoch);
                match next_at_or_after_cur {
                    Some(0) => assert_eq!(got, 0, "line {line} cur {cur}"),
                    Some(d) if !any_in_cur_epoch => {
                        let expect = if d >= 127 { INFINITE_DISTANCE } else { d };
                        assert_eq!(got, expect, "line {line} cur {cur}");
                    }
                    None if !any_in_cur_epoch => {
                        assert_eq!(got, INFINITE_DISTANCE, "line {line} cur {cur}")
                    }
                    _ => {} // intra-epoch ambiguity: covered by dedicated tests
                }
            }
        }
    }

    #[test]
    fn frontier_granularity_shrinks_the_matrix() {
        let g = figure1();
        let data = RerefMatrix::build(
            g.out_csr(),
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let frontier = RerefMatrix::build(
            g.out_csr(),
            8,
            64,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        assert_eq!(data.num_lines(), 1); // 5 vertices, 16/line
        assert_eq!(frontier.num_lines(), 1); // 512 vertices/line
        assert_eq!(frontier.vertices_per_line(), 512);
    }

    #[test]
    fn footprint_matches_paper_arithmetic() {
        // Section IV-A: "For a graph of 32 million vertices, 64B cache
        // lines, and 4B per srcData element, 8-bit quantization yields a
        // Rereference Matrix column size of 2MB (2M lines * 1B)".
        let quant = Quantization::EIGHT;
        let shell = RerefMatrix::shell(32_000_000, 0, 32_000_000, 16, quant, Encoding::InterIntra);
        assert_eq!(shell.num_lines(), 2_000_000);
        assert_eq!(shell.column_bytes(), 2_000_000);
        assert_eq!(shell.resident_bytes(), 4_000_000); // two columns
                                                       // Against the paper's 24 MB 16-way LLC (1.5 MB ways): 3 ways.
        let llc = popt_sim::CacheConfig::new(24 * 1024 * 1024, 16);
        assert_eq!(shell.reserved_llc_ways(&llc), 3);
    }

    #[test]
    fn tiled_range_matrix_matches_the_full_matrix_rows() {
        use popt_graph::generators;
        let g = generators::uniform_random(320, 2000, 7);
        let quant = Quantization::EIGHT;
        let full = RerefMatrix::build(g.out_csr(), 16, 1, quant, Encoding::InterIntra);
        // Tile covering vertices [160, 320): its rows must equal the full
        // matrix's rows 10..20 (16 vertices per line).
        let tile =
            RerefMatrix::build_range(g.out_csr(), 160, 160, 16, 1, quant, Encoding::InterIntra);
        assert_eq!(tile.num_lines(), 10);
        assert_eq!(tile.first_vertex(), 160);
        assert_eq!(tile.epoch_size(), full.epoch_size());
        for line in 0..10 {
            for e in 0..full.num_epochs() {
                assert_eq!(
                    tile.entry(line, e),
                    full.entry(line + 10, e),
                    "line {line} epoch {e}"
                );
            }
        }
        // Column shrinks with the tile: the Figure 13 capacity effect.
        assert!(tile.column_bytes() < full.column_bytes());
        assert_eq!(full.rows(160, 160), tile);
        let head =
            RerefMatrix::build_range(g.out_csr(), 0, 160, 16, 1, quant, Encoding::InterIntra);
        assert_eq!(full.rows(0, 160), head);
        assert_eq!(tile.rows(192, 128), full.rows(192, 128));
    }

    #[test]
    #[should_panic(expected = "line boundary")]
    fn rows_ending_inside_a_line_are_rejected() {
        let t = popt_graph::Csr::from_edges(64, &[(0, 1)]).unwrap();
        let full = RerefMatrix::build(&t, 16, 1, Quantization::EIGHT, Encoding::InterIntra);
        let _ = full.rows(16, 20);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_tile_base_is_rejected() {
        let t = popt_graph::Csr::from_edges(64, &[(0, 1)]).unwrap();
        let _ =
            RerefMatrix::build_range(&t, 3, 32, 16, 1, Quantization::EIGHT, Encoding::InterIntra);
    }

    #[test]
    #[should_panic(expected = "covered range must fit the vertex space")]
    fn tile_past_the_vertex_space_is_rejected() {
        let t = popt_graph::Csr::from_edges(64, &[(0, 1)]).unwrap();
        let _ =
            RerefMatrix::build_range(&t, 48, 32, 16, 1, Quantization::EIGHT, Encoding::InterIntra);
    }

    #[test]
    fn reciprocal_divides_exactly() {
        let divisors = [
            1u32,
            2,
            3,
            5,
            7,
            63,
            127,
            641,
            3907,
            125_000,
            1 << 31,
            u32::MAX,
        ];
        for d in divisors {
            let r = Reciprocal::new(d);
            let probes = [
                0u32,
                1,
                d - 1,
                d,
                d.saturating_add(1),
                u32::MAX / 2,
                u32::MAX - 1,
                u32::MAX,
            ];
            let multiples = (1..64u32).filter_map(|k| d.checked_mul(k));
            for n in probes.into_iter().chain(multiples.flat_map(|m| [m - 1, m])) {
                assert_eq!(r.apply(u64::from(n)), (n / d) as usize, "{n} / {d}");
            }
        }
    }

    /// The builder this crate used before the one-pass row routine, kept
    /// as the oracle: it gathers each line's references, sorts them, and
    /// scans them with two divisions apiece into a fresh per-row buffer.
    fn naive_build_range(
        transpose: &Csr,
        first_vertex: u32,
        covered_vertices: usize,
        vertices_per_line: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> RerefMatrix {
        let mut m = RerefMatrix::shell(
            transpose.num_vertices(),
            first_vertex,
            covered_vertices,
            vertices_per_line,
            quant,
            encoding,
        );
        let (es, ses, nse) = (m.epoch_size, m.sub_epoch_size, m.num_sub_epochs);
        let end = first_vertex as usize + covered_vertices;
        let vpl = vertices_per_line as usize;
        let mut data = vec![0; m.num_lines * m.num_epochs];
        for (line, row) in data.chunks_mut(m.num_epochs).enumerate() {
            let lo = first_vertex as usize + line * vpl;
            let mut refs: Vec<VertexId> = (lo..(lo + vpl).min(end))
                .flat_map(|v| transpose.neighbors(cast::exact(v)).iter().copied())
                .collect();
            refs.sort_unstable();
            let mut last_sub: Vec<Option<u32>> = vec![None; row.len()];
            for &r in &refs {
                let e = r / es;
                let sub = ((r - e * es) / ses).min(nse - 1);
                let slot = &mut last_sub[e as usize];
                *slot = Some(slot.map_or(sub, |prev| prev.max(sub)));
            }
            let mut next_ref_epoch: Option<usize> = None;
            for e in (0..row.len()).rev() {
                row[e] = match last_sub[e] {
                    Some(sub) => {
                        let accessed_next = e + 1 < row.len() && last_sub[e + 1].is_some();
                        next_ref_epoch = Some(e);
                        RawEntry::present(sub, accessed_next, quant, encoding).0
                    }
                    None => {
                        let distance = next_ref_epoch.map(|n| cast::exact::<u32, usize>(n - e));
                        RawEntry::absent(distance, quant, encoding).0
                    }
                };
            }
        }
        m.set_data(data);
        m
    }

    /// Every builder against [`naive_build_range`] over quantization ×
    /// encoding × granularity × worker count: whole-graph builds (serial
    /// and parallel) and an aligned tile starting a third of the way in.
    fn assert_builders_match_the_naive_oracle(graph: &Graph) {
        let grains = [(1, 1), (4, 1), (16, 1), (16, 64)];
        let encodings = [
            Encoding::InterOnly,
            Encoding::InterIntra,
            Encoding::SingleEpoch,
        ];
        for transpose in [graph.out_csr(), graph.in_csr()] {
            let n = transpose.num_vertices();
            for bits in [2, 4, 8, 16] {
                let quant = Quantization::new(bits);
                for encoding in encodings {
                    for (epl, vpe) in grains {
                        let vpl = epl * vpe;
                        let what = format!("n={n} q{bits} {encoding} {epl}x{vpe}");
                        let naive = naive_build_range(transpose, 0, n, vpl, quant, encoding);
                        assert_eq!(
                            RerefMatrix::build(transpose, epl, vpe, quant, encoding),
                            naive,
                            "build {what}"
                        );
                        for threads in [1, 2, 3, 7] {
                            let parallel = crate::preprocess::build_parallel(
                                transpose, epl, vpe, quant, encoding, threads,
                            );
                            assert_eq!(parallel, naive, "build_parallel x{threads} {what}");
                        }
                        let first = cast::exact::<u32, usize>(n / 3) / vpl * vpl;
                        let covered = (n - first as usize).div_ceil(2);
                        assert_eq!(
                            RerefMatrix::build_range(
                                transpose, first, covered, epl, vpe, quant, encoding
                            ),
                            naive_build_range(transpose, first, covered, vpl, quant, encoding),
                            "build_range [{first}, +{covered}) {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn builders_match_the_naive_oracle_on_small_graphs() {
        use popt_graph::generators::{rmat, uniform_random, RmatParams};
        assert_builders_match_the_naive_oracle(&rmat(8, 2000, RmatParams::KRONECKER, 9));
        assert_builders_match_the_naive_oracle(&uniform_random(300, 2000, 4));
        assert_builders_match_the_naive_oracle(&Graph::from_edges(0, &[]).unwrap());
        assert_builders_match_the_naive_oracle(&Graph::from_edges(1, &[]).unwrap());
        assert_builders_match_the_naive_oracle(&Graph::from_edges(1, &[(0, 0)]).unwrap());
    }

    #[test]
    #[ignore = "large grid; run with --release -- --ignored"]
    fn builders_match_the_naive_oracle_on_a_large_rmat_graph() {
        use popt_graph::generators::{rmat, RmatParams};
        assert_builders_match_the_naive_oracle(&rmat(12, 8 << 12, RmatParams::KRONECKER, 3));
    }

    #[test]
    fn single_epoch_conservative_fallback() {
        // 40 vertices with 4-bit quantization: 16 epochs of 3 vertices, so
        // intra-epoch positions exist. Vertex 0's line is referenced only at
        // outer vertex 0; vertex 1's line at outer vertices 1 and 4.
        let transpose = popt_graph::Csr::from_edges(40, &[(0, 0), (1, 1), (1, 4)]).unwrap();
        let m = RerefMatrix::build(&transpose, 1, 1, Quantization::FOUR, Encoding::SingleEpoch);
        assert_eq!(m.epoch_size(), 3);
        // Line 0 at outer vertex 1: past its final access (sub-epoch 0) with
        // no next-epoch access; only the current column is resident, so
        // P-OPT-SE reports the conservative in-range distance 2 even though
        // the true next reference is at infinity.
        assert_eq!(m.next_ref(0, 1), 2);
        // Line 1 at outer vertex 2: past its final access (vertex 1) but the
        // next-epoch bit is set (vertex 4 is in epoch 1): distance 1.
        assert_eq!(m.next_ref(1, 2), 1);
    }
}
