//! Mesh checkpointing: serialize a mesh snapshot to a compact binary form
//! and restore it with full invariant validation.
//!
//! Production AMR frameworks restart week-long runs from checkpoint files
//! (§I: codes "often run for weeks"); a placement layer must be able to
//! round-trip the mesh structure it was computed against. The format is a
//! flat leaf list — the same representation [`crate::tree::Octree`] uses in
//! memory — so encoding is O(n) and restoring revalidates tiling and 2:1
//! balance before handing the mesh back.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "AMRM" | version u32 | dim u8 | roots (u32,u32,u32) | max_level u8 |
//! periodic u8 |
//! spec (cells u32, ghost u32, vars u32, bytes u32) |
//! domain (lo.x..hi.z: 6 × f64) | leaf_count u64 |
//! leaves: (level u8, x u32, y u32, z u32) × leaf_count
//! ```

use crate::block::BlockSpec;
use crate::geom::{Aabb, Dim, Point};
use crate::mesh::{AmrMesh, MeshConfig};
use crate::octant::Octant;
use crate::tree::Octree;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic bytes of the checkpoint format.
pub const MAGIC: &[u8; 4] = b"AMRM";
/// Current version.
pub const VERSION: u32 = 1;

/// Errors restoring a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    BadMagic,
    BadVersion(u32),
    Truncated,
    /// The leaf set does not form a valid 2:1-balanced tiling.
    InvalidMesh(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "bad magic"),
            RestoreError::BadVersion(v) => write!(f, "unsupported version {v}"),
            RestoreError::Truncated => write!(f, "checkpoint truncated"),
            RestoreError::InvalidMesh(e) => write!(f, "invalid mesh: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Serialize a mesh snapshot.
pub fn save(mesh: &AmrMesh) -> Bytes {
    let cfg = mesh.config();
    let n = mesh.num_blocks();
    let mut buf = BytesMut::with_capacity(64 + n * 13);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u8(match cfg.dim {
        Dim::D2 => 2,
        Dim::D3 => 3,
    });
    buf.put_u32_le(cfg.roots.0);
    buf.put_u32_le(cfg.roots.1);
    buf.put_u32_le(cfg.roots.2);
    buf.put_u8(cfg.max_level);
    buf.put_u8(cfg.periodic as u8);
    buf.put_u32_le(cfg.spec.cells_per_axis);
    buf.put_u32_le(cfg.spec.ghost_width);
    buf.put_u32_le(cfg.spec.num_vars);
    buf.put_u32_le(cfg.spec.bytes_per_value);
    for v in [
        cfg.domain.lo.x,
        cfg.domain.lo.y,
        cfg.domain.lo.z,
        cfg.domain.hi.x,
        cfg.domain.hi.y,
        cfg.domain.hi.z,
    ] {
        buf.put_f64_le(v);
    }
    buf.put_u64_le(n as u64);
    for b in mesh.blocks() {
        buf.put_u8(b.octant.level);
        buf.put_u32_le(b.octant.x);
        buf.put_u32_le(b.octant.y);
        buf.put_u32_le(b.octant.z);
    }
    buf.freeze()
}

/// Restore a mesh snapshot, revalidating all structural invariants.
pub fn restore(mut buf: &[u8]) -> Result<AmrMesh, RestoreError> {
    if buf.remaining() < 4 + 4 {
        return Err(RestoreError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(RestoreError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(RestoreError::BadVersion(version));
    }
    // Fixed-size header after magic+version: 1 + 12 + 1 + 1 + 16 + 48 + 8.
    if buf.remaining() < 87 {
        return Err(RestoreError::Truncated);
    }
    let dim = match buf.get_u8() {
        2 => Dim::D2,
        3 => Dim::D3,
        d => return Err(RestoreError::InvalidMesh(format!("bad dim {d}"))),
    };
    let roots = (buf.get_u32_le(), buf.get_u32_le(), buf.get_u32_le());
    let max_level = buf.get_u8();
    let periodic = buf.get_u8() != 0;
    let spec = BlockSpec {
        cells_per_axis: buf.get_u32_le(),
        ghost_width: buf.get_u32_le(),
        num_vars: buf.get_u32_le(),
        bytes_per_value: buf.get_u32_le(),
    };
    let vals: Vec<f64> = (0..6).map(|_| buf.get_f64_le()).collect();
    let domain = Aabb::new(
        Point::new(vals[0], vals[1], vals[2]),
        Point::new(vals[3], vals[4], vals[5]),
    );
    // 13 bytes per leaf record; a count whose record bytes overflow cannot
    // be backed by any buffer.
    let n = usize::try_from(buf.get_u64_le()).unwrap_or(usize::MAX);
    if n.checked_mul(13)
        .is_none_or(|bytes| bytes > buf.remaining())
    {
        return Err(RestoreError::Truncated);
    }
    let mut leaves = Vec::with_capacity(n);
    for _ in 0..n {
        let level = buf.get_u8();
        let x = buf.get_u32_le();
        let y = buf.get_u32_le();
        let z = buf.get_u32_le();
        leaves.push(Octant::new(level, x, y, z));
    }
    let config = MeshConfig {
        dim,
        roots,
        domain,
        spec,
        max_level,
        periodic,
    };
    let tree = Octree::from_leaves(dim, roots, leaves).map_err(RestoreError::InvalidMesh)?;
    AmrMesh::from_parts(config, tree).map_err(RestoreError::InvalidMesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::RefineTag;

    fn refined_mesh() -> AmrMesh {
        let mut m = AmrMesh::new(MeshConfig::from_cells(Dim::D3, (64, 64, 64), 2));
        m.adapt(|b| {
            if b.id.index() % 9 == 0 {
                RefineTag::Refine
            } else {
                RefineTag::Keep
            }
        });
        m
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = refined_mesh();
        let bytes = save(&m);
        let back = restore(&bytes).unwrap();
        assert_eq!(back.num_blocks(), m.num_blocks());
        for (a, b) in m.blocks().iter().zip(back.blocks()) {
            assert_eq!(a.octant, b.octant);
            assert_eq!(a.id, b.id);
        }
        assert_eq!(back.config().spec, m.config().spec);
        back.check_invariants().unwrap();
    }

    #[test]
    fn roundtrip_2d() {
        let m = AmrMesh::new(MeshConfig::from_cells(Dim::D2, (64, 32, 0), 1));
        let back = restore(&save(&m)).unwrap();
        assert_eq!(back.num_blocks(), m.num_blocks());
        assert_eq!(back.config().dim, Dim::D2);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(restore(b"nope").unwrap_err(), RestoreError::Truncated);
        let mut bytes = save(&refined_mesh()).to_vec();
        bytes[0] = b'X';
        assert_eq!(restore(&bytes).unwrap_err(), RestoreError::BadMagic);
        let bytes = save(&refined_mesh());
        assert_eq!(
            restore(&bytes[..bytes.len() - 5]).unwrap_err(),
            RestoreError::Truncated
        );
    }

    #[test]
    fn rejects_overflowing_leaf_count() {
        // `u64::MAX / 13 + 1` leaves: the record byte count overflows u64
        // (it wraps to 2), which must read as truncation, not a panic or a
        // huge allocation.
        let mut bytes = save(&refined_mesh()).to_vec();
        let count_at = 4 + 4 + 1 + 12 + 1 + 1 + 16 + 48;
        let n = u64::MAX / 13 + 1;
        bytes[count_at..count_at + 8].copy_from_slice(&n.to_le_bytes());
        assert_eq!(restore(&bytes).unwrap_err(), RestoreError::Truncated);
    }

    #[test]
    fn rejects_corrupted_leaf_set() {
        let m = refined_mesh();
        let mut bytes = save(&m).to_vec();
        // Duplicate the first leaf record over the second.
        let header = 4 + 4 + 1 + 12 + 1 + 1 + 16 + 48 + 8;
        let (first, second) = (header, header + 13);
        let leaf: Vec<u8> = bytes[first..first + 13].to_vec();
        bytes[second..second + 13].copy_from_slice(&leaf);
        match restore(&bytes) {
            Err(RestoreError::InvalidMesh(_)) => {}
            other => panic!("expected InvalidMesh, got {other:?}"),
        }
    }

    #[test]
    fn version_check() {
        let mut bytes = save(&refined_mesh()).to_vec();
        bytes[4] = 42;
        assert_eq!(restore(&bytes).unwrap_err(), RestoreError::BadVersion(42));
    }
}
