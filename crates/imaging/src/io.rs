//! Minimal PGM output (and PGM input for tests).
//!
//! The example binaries write rendered frames as binary PGM (grayscale)
//! files, which every common image viewer understands and which need no
//! external dependencies.

use crate::image::Image;
use crate::pixel::GrayAlpha;
use crate::ImagingError;
use std::io::{self, Read, Write};
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

/// Read a binary PGM (`P5`, maxval 255) into an opaque grayscale image.
pub fn read_pgm<R: Read>(mut r: R) -> Result<Image<GrayAlpha>, ImagingError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)
        .map_err(|_| ImagingError::BadEncoding {
            what: "PGM read failed",
        })?;
    parse_pgm(&buf)
}

fn pgm_token(buf: &[u8], at: &mut usize) -> Result<String, ImagingError> {
    while *at < buf.len() && (buf[*at] as char).is_whitespace() {
        *at += 1;
    }
    if *at < buf.len() && buf[*at] == b'#' {
        while *at < buf.len() && buf[*at] != b'\n' {
            *at += 1;
        }
        while *at < buf.len() && (buf[*at] as char).is_whitespace() {
            *at += 1;
        }
    }
    let start = *at;
    while *at < buf.len() && !(buf[*at] as char).is_whitespace() {
        *at += 1;
    }
    if start == *at {
        return Err(ImagingError::BadEncoding {
            what: "truncated PGM header",
        });
    }
    Ok(String::from_utf8_lossy(&buf[start..*at]).into_owned())
}

fn parse_pgm(buf: &[u8]) -> Result<Image<GrayAlpha>, ImagingError> {
    let bad = |what| ImagingError::BadEncoding { what };
    let mut at = 0usize;
    if pgm_token(buf, &mut at)? != "P5" {
        return Err(bad("not a binary PGM (P5)"));
    }
    let width: usize = pgm_token(buf, &mut at)?
        .parse()
        .map_err(|_| bad("bad PGM width"))?;
    let height: usize = pgm_token(buf, &mut at)?
        .parse()
        .map_err(|_| bad("bad PGM height"))?;
    let maxval: usize = pgm_token(buf, &mut at)?
        .parse()
        .map_err(|_| bad("bad PGM maxval"))?;
    if maxval != 255 {
        return Err(bad("only maxval 255 PGM supported"));
    }
    at += 1; // single whitespace after maxval
    if buf.len() < at + width * height {
        return Err(bad("truncated PGM payload"));
    }
    let data = buf[at..at + width * height]
        .iter()
        .map(|&b| GrayAlpha::opaque(b as f32 / 255.0))
        .collect();
    Image::from_vec(width, height, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Pixel;

    #[test]
    fn pgm_roundtrip() {
        let img = Image::from_fn(5, 4, |x, y| {
            GrayAlpha::opaque(((x * 50 + y * 13) % 256) as f32 / 255.0)
        });
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(&buf[..]).unwrap();
        assert_eq!(back.width(), 5);
        assert_eq!(back.height(), 4);
        assert!(back.approx_eq(&img, 1.0 / 255.0));
    }

    #[test]
    fn pgm_rejects_garbage() {
        assert!(read_pgm(&b"P6\n2 2\n255\nxxxx"[..]).is_err());
        assert!(read_pgm(&b"P5\n2 2\n255\nab"[..]).is_err()); // truncated
        assert!(read_pgm(&b"P5\n2 two\n255\nabcd"[..]).is_err());
    }

    #[test]
    fn pgm_handles_comments() {
        let data = b"P5\n# a comment\n2 2\n255\nabcd";
        let img = read_pgm(&data[..]).unwrap();
        assert_eq!(img.len(), 4);
        assert_eq!(img.get(0, 0).to_u8(), b'a');
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
