//! Minimal PGM output: the example binaries write rendered frames as
//! binary PGM (grayscale), which every common image viewer opens.

use crate::image::Image;
use crate::pixel::GrayAlpha;
use std::io::{self, Write};
use std::path::Path;

/// Write a grayscale image as binary PGM (`P5`).
pub fn write_pgm<W: Write>(img: &Image<GrayAlpha>, mut w: W) -> io::Result<()> {
    write!(w, "P5\n{} {}\n255\n", img.width(), img.height())?;
    let bytes: Vec<u8> = img.pixels().iter().map(|p| p.to_u8()).collect();
    w.write_all(&bytes)
}

/// Write a grayscale image to a PGM file at `path`.
pub fn save_pgm(img: &Image<GrayAlpha>, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_pgm(img, io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Pixel;

    #[test]
    fn pgm_roundtrip() {
        let img = Image::from_fn(3, 2, |x, y| GrayAlpha::opaque((x + 3 * y) as f32 / 5.0));
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let (header, payload) = buf.split_at(buf.len() - 6);
        assert_eq!(header, b"P5\n3 2\n255\n");
        assert_eq!(payload, &[0, 51, 102, 153, 204, 255]);
    }

    #[test]
    fn blank_pixels_serialize_black() {
        let img: Image<GrayAlpha> = Image::blank(2, 2);
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        assert_eq!(&buf[buf.len() - 4..], &[0, 0, 0, 0]);
        assert!(GrayAlpha::blank().is_blank());
    }
}
