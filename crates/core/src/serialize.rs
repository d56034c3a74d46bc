//! Rereference Matrix persistence.
//!
//! "The Rereference Matrix is algorithm agnostic and needs to be created
//! only once for a graph … the preprocessing cost of P-OPT can be easily
//! amortized by reusing the Rereference Matrix across multiple applications
//! running on the same graph" (paper Section VII-D). This module gives the
//! amortization a concrete form: build once with `graphgen`, persist, and
//! load for any number of simulation runs.

use crate::cast;
use crate::{Encoding, Quantization, RerefMatrix};
use std::io::{BufReader, Read, Write};

const MAGIC: &[u8; 8] = b"POPTRRM1";

/// Bytes before the entries: magic, quantization bits, encoding tag and
/// four 64-bit geometry fields.
const HEADER_BYTES: usize = MAGIC.len() + 2 + 4 * 8;

/// Entries [`read_matrix`] reads per bulk read.
const READ_CHUNK_ENTRIES: usize = 1 << 16;

/// Error for matrix (de)serialization.
#[derive(Debug)]
pub enum MatrixFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Bad magic, unknown encoding tag, or truncated payload.
    Format(String),
}

impl std::fmt::Display for MatrixFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixFileError::Io(e) => write!(f, "i/o error: {e}"),
            MatrixFileError::Format(m) => write!(f, "malformed matrix file: {m}"),
        }
    }
}

impl std::error::Error for MatrixFileError {}

impl From<std::io::Error> for MatrixFileError {
    fn from(e: std::io::Error) -> Self {
        MatrixFileError::Io(e)
    }
}

fn encoding_tag(e: Encoding) -> u8 {
    match e {
        Encoding::InterOnly => 0,
        Encoding::InterIntra => 1,
        Encoding::SingleEpoch => 2,
    }
}

fn encoding_from_tag(tag: u8) -> Result<Encoding, MatrixFileError> {
    match tag {
        0 => Ok(Encoding::InterOnly),
        1 => Ok(Encoding::InterIntra),
        2 => Ok(Encoding::SingleEpoch),
        other => Err(MatrixFileError::Format(format!(
            "unknown encoding tag {other}"
        ))),
    }
}

/// Writes `matrix` in the binary `.rrm` format.
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Example
///
/// ```
/// use popt_core::{serialize, Encoding, Quantization, RerefMatrix};
/// use popt_graph::Csr;
///
/// let t = Csr::from_edges(16, &[(0, 3), (5, 9)])?;
/// let m = RerefMatrix::build(&t, 16, 1, Quantization::EIGHT, Encoding::InterIntra);
/// let mut buf = Vec::new();
/// serialize::write_matrix(&m, &mut buf)?;
/// let back = serialize::read_matrix(&buf[..])?;
/// assert_eq!(m, back);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_matrix<W: Write>(matrix: &RerefMatrix, mut writer: W) -> Result<(), MatrixFileError> {
    let entries = matrix.raw_data();
    let mut out = Vec::with_capacity(HEADER_BYTES + 2 * entries.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[
        matrix.quantization().bits(),
        encoding_tag(matrix.encoding()),
    ]);
    for v in [
        matrix.outer_vertices() as u64,
        matrix.first_vertex() as u64,
        matrix.covered_vertices() as u64,
        matrix.vertices_per_line() as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for &entry in entries {
        out.extend_from_slice(&entry.to_le_bytes());
    }
    writer.write_all(&out)?;
    writer.flush()?;
    Ok(())
}

/// Reads a matrix written by [`write_matrix`].
///
/// # Errors
///
/// Returns [`MatrixFileError::Format`] on corrupt input.
pub fn read_matrix<R: Read>(reader: R) -> Result<RerefMatrix, MatrixFileError> {
    let mut input = BufReader::new(reader);
    let mut magic = [0u8; 8];
    input
        .read_exact(&mut magic)
        .map_err(|_| MatrixFileError::Format("truncated magic".into()))?;
    if &magic != MAGIC {
        return Err(MatrixFileError::Format("bad magic".into()));
    }
    let mut head = [0u8; 2];
    input
        .read_exact(&mut head)
        .map_err(|_| MatrixFileError::Format("truncated header".into()))?;
    if !(2..=16).contains(&head[0]) {
        return Err(MatrixFileError::Format(format!(
            "bad quantization bits {}",
            head[0]
        )));
    }
    let quant = Quantization::new(head[0]);
    let encoding = encoding_from_tag(head[1])?;
    let mut u64buf = [0u8; 8];
    let mut fields = [0u64; 4];
    for f in &mut fields {
        input
            .read_exact(&mut u64buf)
            .map_err(|_| MatrixFileError::Format("truncated geometry".into()))?;
        *f = u64::from_le_bytes(u64buf);
    }
    let [outer, first, covered, vpl] = fields;
    // Header fields are untrusted input: the outer loop must fit the
    // 32-bit vertex space, and the covered rows must fit the outer loop.
    let fits =
        outer <= u64::from(u32::MAX) && first.checked_add(covered).is_some_and(|end| end <= outer);
    if vpl == 0 || first % vpl != 0 || !fits {
        return Err(MatrixFileError::Format("inconsistent geometry".into()));
    }
    let first = cast::narrow::<u32, u64>(first)
        .map_err(|e| MatrixFileError::Format(format!("first vertex: {e}")))?;
    let vpl = cast::narrow::<u32, u64>(vpl)
        .map_err(|e| MatrixFileError::Format(format!("vertices per line: {e}")))?;
    let mut matrix = RerefMatrix::shell(
        outer as usize,
        first,
        covered as usize,
        vpl,
        quant,
        encoding,
    );
    let expected = matrix.num_lines() * matrix.num_epochs();
    // Grow with the entries actually read, in bounded chunks: a corrupt
    // header must not reserve its claimed size up front.
    let mut data = Vec::with_capacity(expected.min(1 << 20));
    let mut chunk = vec![0u8; 2 * expected.min(READ_CHUNK_ENTRIES)];
    while data.len() < expected {
        let bytes = 2 * (expected - data.len()).min(READ_CHUNK_ENTRIES);
        let chunk = &mut chunk[..bytes];
        input
            .read_exact(chunk)
            .map_err(|_| MatrixFileError::Format("truncated entries".into()))?;
        data.extend(
            chunk
                .chunks_exact(2)
                .map(|pair| u16::from_le_bytes([pair[0], pair[1]])),
        );
    }
    matrix.set_data(data);
    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::generators;

    #[test]
    fn round_trip_preserves_every_encoding_and_quantization() {
        let g = generators::uniform_random(500, 3000, 7);
        let mut covered = 0;
        for encoding in [
            Encoding::InterOnly,
            Encoding::InterIntra,
            Encoding::SingleEpoch,
        ] {
            for quant in [
                Quantization::FOUR,
                Quantization::EIGHT,
                Quantization::SIXTEEN,
            ] {
                if encoding.payload_bits(quant) == 0 {
                    continue;
                }
                let m = RerefMatrix::build(g.out_csr(), 16, 1, quant, encoding);
                let mut buf = Vec::new();
                write_matrix(&m, &mut buf).unwrap();
                let back = read_matrix(&buf[..]).unwrap();
                assert_eq!(m, back, "{encoding} q{}", quant.bits());
                assert_eq!(back.quantization(), quant);
                assert_eq!(back.encoding(), encoding);
                covered += 1;
            }
        }
        assert_eq!(covered, 9, "all encoding x quantization combinations");
    }

    #[test]
    fn tiled_matrices_round_trip() {
        let g = generators::uniform_random(320, 2000, 3);
        let m = RerefMatrix::build_range(
            g.out_csr(),
            160,
            160,
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        assert_eq!(read_matrix(&buf[..]).unwrap(), m);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(read_matrix(&b"NOTARRM!"[..]).is_err());
        let g = generators::uniform_random(64, 300, 1);
        let m = RerefMatrix::build(
            g.out_csr(),
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        let truncated = &buf[..buf.len() - 1];
        assert!(matches!(
            read_matrix(truncated),
            Err(MatrixFileError::Format(_))
        ));
        // Corrupt the encoding tag.
        let mut bad = buf.clone();
        bad[9] = 77;
        assert!(read_matrix(&bad[..]).is_err());
    }

    #[test]
    fn a_payload_one_byte_short_is_a_format_error() {
        // More entries than one bulk read, so the payload spans chunks.
        let g = generators::uniform_random(8192, 40_000, 3);
        let m = RerefMatrix::build(
            g.out_csr(),
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        assert!(m.raw_data().len() > READ_CHUNK_ENTRIES);
        let mut buf = Vec::new();
        write_matrix(&m, &mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + 2 * m.raw_data().len());
        assert_eq!(read_matrix(&buf[..]).unwrap(), m);
        for cut in [1, 2 * (m.raw_data().len() - READ_CHUNK_ENTRIES) + 1] {
            match read_matrix(&buf[..buf.len() - cut]) {
                Err(MatrixFileError::Format(msg)) => assert!(msg.contains("truncated"), "{msg}"),
                other => panic!("{cut} bytes short: {other:?}"),
            }
        }
    }

    /// A file whose geometry header reads `[outer, first, covered, vpl]`,
    /// 8-bit inter+intra, with no entries.
    fn header(fields: [u64; 4]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&[8, encoding_tag(Encoding::InterIntra)]);
        for f in fields {
            buf.extend_from_slice(&f.to_le_bytes());
        }
        buf
    }

    /// Reads `header(fields)` followed by `entries` zero entries, so a
    /// complete payload leaves only the geometry check to reject it.
    fn assert_format_error(fields: [u64; 4], entries: usize, what: &str) {
        let mut buf = header(fields);
        buf.resize(buf.len() + 2 * entries, 0);
        match read_matrix(&buf[..]) {
            Err(MatrixFileError::Format(m)) => assert!(m.contains("geometry"), "{what}: {m}"),
            other => panic!("{what}: expected a geometry error, got {other:?}"),
        }
    }

    #[test]
    fn outer_loop_beyond_the_vertex_space_is_a_format_error() {
        assert_format_error([1 << 40, 0, 16, 16], 0, "outer = 2^40");
        assert_format_error([u64::from(u32::MAX) + 1, 0, 16, 16], 0, "outer = 2^32");
    }

    #[test]
    fn covered_rows_beyond_the_outer_loop_are_a_format_error() {
        // 64 outer vertices at 8 bits: 64 epochs of one vertex each.
        assert_format_error([64, 0, 65, 1], 65 * 64, "covered > outer");
        assert_format_error([64, 48, 32, 16], 2 * 64, "first + covered > outer");
    }

    #[test]
    fn overflowing_covered_range_is_a_format_error() {
        assert_format_error([64, u64::MAX - 15, 32, 16], 2 * 64, "first + covered wraps");
    }

    #[test]
    fn oversized_geometry_reads_as_truncated() {
        // The largest consistent geometry claims 2^48 entries; with none
        // in the file it must fail as truncated, not reserve them.
        let max = u64::from(u32::MAX);
        let mut buf = header([max, 0, max, 1]);
        buf[8] = 16;
        match read_matrix(&buf[..]) {
            Err(MatrixFileError::Format(m)) => assert!(m.contains("truncated"), "{m}"),
            other => panic!("expected a truncation error, got {other:?}"),
        }
    }
}
